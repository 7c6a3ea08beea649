//! What one version of the document costs, by counts. A commit clones
//! the committed version, applies the statement to the copy and drops
//! the version it replaces; a counting allocator measures the bytes and
//! allocations that takes. Nothing here is timed, so nothing can flake on
//! a slow host: what a version copies is what it wrote, whatever the size
//! of the document.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xic_workload::{
    conflict_constraint, generate, legal_insert, review_load_constraint, workload_constraint,
    WorkloadConfig,
};
use xic_xml::{apply, parse_document, Document, NodeKind};
use xicheck::obs::{self, Counter};
use xicheck::{xpath_resolver, Checker, Strategy, XUpdateDoc};

const DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
    <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n\
    <!ELEMENT aut (name)>\n<!ELEMENT review (track)+>\n\
    <!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
    <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

/// The system allocator, counting what this thread asks of it (the test
/// harness runs tests on threads of their own).
struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    BYTES.with(|b| b.set(b.get() + bytes as u64));
    ALLOCS.with(|a| a.set(a.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only `const`-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The bytes and allocations `f` asks this thread's allocator for.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (bytes, allocs) = (BYTES.with(Cell::get), ALLOCS.with(Cell::get));
    let out = f();
    (out, BYTES.with(Cell::get) - bytes, ALLOCS.with(Cell::get) - allocs)
}

/// Median bytes allocated per version — clone, one legal append, drop of
/// the replaced version — over a stream of appends to a `kib` KiB corpus
/// under the suite's Γ, the value indexes a decision asks for built.
fn bytes_per_version(kib: usize) -> u64 {
    let w = generate(WorkloadConfig::sized_kib(kib, 1));
    let gamma = format!(
        "{}. {}. {}",
        conflict_constraint(),
        workload_constraint(3, 100_000),
        review_load_constraint(100_000)
    );
    let c = Checker::new(&w.xml, DTD, &gamma).expect("corpus loads");
    let stmt = |i: usize| {
        let (track, rev) = (i % w.config.tracks, i % w.config.revs_per_track);
        XUpdateDoc::parse(&legal_insert(track, rev, i)).expect("statement parses")
    };
    assert_eq!(c.decide_only(&stmt(0), Strategy::Optimized).expect("decides"), None);
    let mut current = c.doc().clone();
    drop(c);
    let mut bytes: Vec<u64> = (1..=16)
        .map(|i| {
            let stmt = stmt(i);
            let ((), b, _) = counted(|| {
                let mut next = current.clone();
                apply(&mut next, &stmt, &xpath_resolver).expect("the append applies");
                drop(std::mem::replace(&mut current, next));
            });
            b
        })
        .collect();
    current.audit_indexes().expect("the last version's indexes equal a scan");
    bytes.sort_unstable();
    bytes[bytes.len() / 2]
}

/// 64× the nodes cost at most twice the bytes: a version copies the
/// chunks, leaves and tables it writes, not the document.
#[test]
fn a_version_costs_what_it_writes_whatever_the_size() {
    let (small, large) = (bytes_per_version(32), bytes_per_version(2048));
    println!("bytes allocated per version: {small} at 32 KiB, {large} at 2 MiB");
    assert!(
        large <= 2 * small,
        "a version allocated {small} bytes at 32 KiB and {large} at 2 MiB"
    );
}

/// Copying a chunk a clone shares is one allocation for the chunk and one
/// for each level of the table above it: its 32 records share their
/// strings and long child lists with the original and hold short ones
/// inline, they own nothing to copy.
#[test]
fn copying_a_written_chunk_allocates_nothing_per_record() {
    let w = generate(WorkloadConfig::sized_kib(32, 1));
    let (doc, _) = parse_document(&w.xml).expect("corpus parses");
    let text = doc
        .descendants(doc.document_node())
        .find(|&n| matches!(doc.node(n).kind, NodeKind::Text(_)))
        .expect("a text node");
    let mut copy: Document = doc.clone();
    obs::reset();
    let (_, bytes, allocs) = counted(|| copy.set_text(text, "edited"));
    assert_eq!(obs::counter(Counter::ChunkCopy), 1, "the write copies one chunk");
    // The chunk, its group's table of chunk pointers, the table of
    // groups, the new text and the old one returned as a `String`:
    // nothing per record.
    assert!(allocs <= 5, "copying one chunk made {allocs} allocations ({bytes} bytes)");
    assert_eq!(copy.text_content(text), "edited");
    assert_ne!(doc.text_content(text), "edited");
}
