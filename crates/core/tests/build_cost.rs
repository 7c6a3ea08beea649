//! What building a document costs, by counts. A whole document — a
//! parse, a checkpoint load, a shard's base — is built once in owned
//! memory and then shared: the shards of a set over one base text start
//! from clones of one build, and nothing a build writes goes through the
//! copy-on-write path commits take. A statement's parse costs memory
//! linear in its text, whatever DTD it declares. A counting allocator
//! measures the bytes; nothing here is timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xic_workload::{conflict_constraint, generate, legal_insert, WorkloadConfig};
use xic_xml::{parse_document, XUpdateDoc};
use xicheck::obs::{self, Counter};
use xicheck::{ShardSet, ShardSetConfig};

const DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
    <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n\
    <!ELEMENT aut (name)>\n<!ELEMENT review (track)+>\n\
    <!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
    <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

/// The system allocator, counting the bytes this thread asks of it (the
/// test harness runs tests on threads of their own).
struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only a `const`-initialized thread-local, which never allocates.
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

/// The bytes `f` asks this thread's allocator for.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let bytes = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - bytes)
}

fn set_over(bases: &[&str]) -> ShardSet {
    ShardSet::in_memory(bases, DTD, conflict_constraint(), ShardSetConfig::default())
        .expect("the set starts")
}

/// Sixteen shards over one base text cost about what one does: the text
/// is parsed, validated and held once, and every shard clones the build.
#[test]
fn sixteen_shards_over_one_base_build_it_once() {
    let xml = generate(WorkloadConfig::sized_kib(8, 1)).xml;
    // The first set pays what any set pays once per process (lazily
    // initialized statics); the next two are measured.
    drop(set_over(&[&xml]));
    let (one, one_bytes) = counted(|| set_over(&[&xml]));
    let (sixteen, sixteen_bytes) = counted(|| set_over(&[xml.as_str(); 16]));
    println!("allocated: {one_bytes} bytes for one shard, {sixteen_bytes} for sixteen");
    assert!(
        sixteen_bytes * 4 <= one_bytes * 5,
        "sixteen shards over one base allocated {sixteen_bytes} bytes, one shard {one_bytes}"
    );
    assert_eq!(sixteen.snapshot(15).expect("shard 15").serialize(), one.snapshot(0).expect("shard 0").serialize());
}

/// A parse builds its document in owned memory: no chunk is copied.
#[test]
fn parsing_copies_no_chunk() {
    let xml = generate(WorkloadConfig::sized_kib(64, 1)).xml;
    obs::reset();
    let (doc, _) = parse_document(&xml).expect("the corpus parses");
    assert_eq!(obs::counter(Counter::ChunkCopy), 0);
    doc.audit_indexes().expect("the build's indexes equal a scan");
    doc.audit_symbols().expect("the build's symbols are coherent");
}

/// Shards over one build share its nodes until they write: a commit to
/// shard 0 copies what it writes and leaves shard 1 as it was.
#[test]
fn a_commit_to_one_shard_leaves_its_sibling_alone() {
    let w = generate(WorkloadConfig::sized_kib(8, 1));
    let set = set_over(&[&w.xml, &w.xml]);
    let before = set.snapshot(1).expect("shard 1").serialize();
    let outcome = set.submit(0, &legal_insert(0, 0, 1)).expect("the commit is answered");
    assert!(outcome.outcome.applied(), "{outcome:?}");
    let (zero, one) = (set.snapshot(0).expect("shard 0"), set.snapshot(1).expect("shard 1"));
    assert_ne!(zero.serialize(), before);
    assert_eq!(one.serialize(), before);
    for snapshot in [&zero, &one] {
        snapshot.doc().audit_indexes().expect("indexes equal a scan");
        snapshot.doc().audit_symbols().expect("symbols are coherent");
    }
}

/// A statement, as a client sends it, whose internal subset declares a
/// choice of `names` names.
fn statement_declaring(names: usize) -> String {
    let choice: Vec<String> = (0..names).map(|i| format!("a{i}")).collect();
    format!(
        "<!DOCTYPE r [<!ELEMENT r ({})*>]><xupdate:modifications xmlns:xupdate=\"x\">\
         <xupdate:remove select=\"/r/a0\"/></xupdate:modifications>",
        choice.join("|")
    )
}

/// A statement's DTD is parsed, not compiled: the parse of a statement
/// declaring a 2 000-name choice, whose automaton would take about a
/// megabyte, allocates about fifty times its text (every growth of a
/// `Vec` or a map counted), and twice the names cost about twice the
/// bytes.
#[test]
fn a_statements_dtd_costs_memory_linear_in_its_text() {
    let (small, large) = (statement_declaring(2000), statement_declaring(4000));
    let (parsed, small_bytes) = counted(|| XUpdateDoc::parse(&small));
    parsed.expect("the statement parses");
    let (parsed, large_bytes) = counted(|| XUpdateDoc::parse(&large));
    parsed.expect("the statement parses");
    println!(
        "allocated: {small_bytes} bytes for a {}-byte statement, {large_bytes} for {} bytes",
        small.len(),
        large.len()
    );
    assert!(small_bytes <= 96 * small.len() as u64, "{small_bytes} bytes for {} of text", small.len());
    assert!(
        large_bytes * 10 <= small_bytes * 23,
        "twice the names allocated {large_bytes} bytes, the names alone {small_bytes}"
    );
}
