//! Crash-matrix harness: inject a crash at every registered fault site
//! during a random update batch and prove that journal recovery restores
//! **exactly the committed prefix** of a never-crashed twin run.
//!
//! Each case is a pure function of its `u64` seed, like the differential
//! fuzzer's cases:
//!
//! 1. Materialize the seed's [`Case`] (schema, document, constraints,
//!    statement batch) and derive the crash point from the seed: a site
//!    from [`xic_faults::SITES`], a 1-based trigger hit, and whether the
//!    store fsyncs at its flush point (`journal.sync` fires only then —
//!    once per direct statement that appended a record).
//! 2. **Twin run** (no faults, no store): drive the statements through
//!    [`Checker::try_update`], recording the serialized document after
//!    every commit. `snaps[k]` is the state after `k + 1` commits.
//! 3. **Crashed run**: a fresh checker with a store attached, the fault
//!    armed in [`FaultMode::Panic`]. Drive the same statements until the
//!    injected panic fires (contained by the checker, which poisons
//!    itself — or, in the flush, degrades itself — the in-memory tree is
//!    as good as lost) or the batch ends.
//! 4. **Recovery**: [`Checker::open_store`] rebuilds a checker from
//!    the base document plus the store. With `p` commits restored, the
//!    recovered serialization must be byte-identical to `snaps[p - 1]`
//!    (the base document when `p == 0`) — an uncommitted update
//!    surviving, or a committed one going missing, is a divergence.
//!
//! The in-process panic is on-disk equivalent to a real crash at the same
//! point because journal writes are unbuffered: every byte the journal
//! wrote before the panic is in the file, and nothing after it is. (A
//! power loss could additionally drop *un-fsynced* tail records; the
//! oracle is agnostic to that, since it accepts the committed prefix the
//! journal actually retained and cross-checks it against the twin.)
//!
//! Half the seeds — and every seed landing on a `checkpoint.*` /
//! `rotation.*` site — run **rotating**: the crashed run's store has an
//! aggressive automatic rotation policy, so recovery picks among
//! generations (newest valid one, generation-by-generation fallback).
//! The rest never rotate — generation 0 only, a plain write-ahead journal.
//! The oracle is the same: snapshot-base commits plus the replayed suffix
//! must reproduce the twin's committed prefix byte for byte, proving
//! rotation never loses a committed record whatever step the crash lands on.
//!
//! When the site list reaches the rotation sites, a **failed-rotation
//! pass** follows the matrix proper: each checkpoint/rotation site is
//! armed in [`FaultMode::Error`] instead — the rotation fails mid-flight,
//! the checker keeps committing to its old segment, and the crash lands
//! *later*. Recovery must restore every acknowledged commit; an orphan
//! snapshot durably written by the failed rotation must never win and
//! silently truncate history to its own sequence number.
//!
//! When the site list reaches the write-path sites, a **group-commit
//! pass** runs as well: the same statements are driven through the
//! service's batch path ([`xicheck::service::apply_batch`] — journal
//! records appended unsynced, one shared fsync per batch that appended
//! one) with a panic
//! armed mid-batch. Recovery must equal the committed prefix of the
//! sequential twin, and must never lose a commit from a batch whose
//! shared fsync already succeeded (an *acknowledged* batch). The batch
//! logic is driven directly on the harness thread — not through a
//! service, where another submitter may lead the batch — because fault
//! arming is thread-scoped.
//!
//! Divergences print a single-line replay command
//! (`cargo run -p xic-difftest -- --crash-matrix --seed N --cases 1`,
//! plus the run's `--sites` filter when one was set); the site and
//! trigger are re-derived from the seed, so the seed alone is a complete
//! reproducer. The report counts, per site, the cases of all three passes
//! in which the armed fault fired (`fired_by_site`): a site that fell off
//! the write path shows as a zero.

use std::path::Path;
use xic_faults::{FaultMode, SITES};
use xic_xml::XUpdateDoc;
use xicheck::service::{apply_batch, BatchDisposition, BatchStmt, ServiceError};
use xicheck::{Checker, CheckerError, CheckpointPolicy};

use crate::{each_case, fault_floor, generate_case, Case, Config, Outcome};

/// Resolves a `--sites` filter against [`xic_faults::SITES`]: each
/// comma-separated pattern matches by substring; `None` keeps all sites.
pub fn filter_sites(filter: Option<&str>) -> Vec<&'static str> {
    match filter {
        None => SITES.to_vec(),
        Some(f) => {
            let pats: Vec<&str> = f.split(',').filter(|p| !p.is_empty()).collect();
            SITES
                .iter()
                .copied()
                .filter(|s| pats.iter().any(|p| s.contains(p)))
                .collect()
        }
    }
}

/// The crash point derived from a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The armed fault site (an entry of [`xic_faults::SITES`]).
    pub site: &'static str,
    /// 1-based hit on which the panic triggers.
    pub nth: u64,
    /// Whether the store fsyncs at its flush point.
    pub sync: bool,
}

/// Derives the crash point for `seed`. Consecutive seeds walk the site
/// list round-robin, so any window of `SITES.len()` cases covers every
/// registered site; the trigger hit and fsync mode vary independently.
pub fn crash_point(seed: u64) -> CrashPoint {
    crash_point_in(SITES, seed)
}

/// [`crash_point`] over a filtered site list (see [`filter_sites`]); the
/// replay command must carry the same `--sites` filter for the seed to
/// re-derive the same point.
pub fn crash_point_in(sites: &[&'static str], seed: u64) -> CrashPoint {
    CrashPoint {
        site: site_of(sites, seed),
        nth: 1 + (seed / sites.len() as u64) % 3,
        sync: (seed / 2) % 2 == 0,
    }
}

/// The site `seed` arms out of `sites`: consecutive seeds walk the list
/// round-robin, in every pass.
fn site_of(sites: &[&'static str], seed: u64) -> &'static str {
    sites[(seed % sites.len() as u64) as usize]
}

/// True for sites that only fire while a checkpoint rotation is running;
/// cases landing on one always rotate so the site is reachable.
pub(crate) fn is_rotation_site(site: &str) -> bool {
    site.starts_with("checkpoint.") || site.starts_with("rotation.")
}

/// A confirmed recovery divergence.
#[derive(Debug, Clone)]
pub struct CrashDivergence {
    /// Seed of the failing case.
    pub seed: u64,
    /// The crash point that was armed.
    pub point: CrashPoint,
    /// The `--sites` filter the run used (the point is derived from the
    /// filtered list, so the replay must repeat it).
    pub sites: Option<String>,
    /// What went wrong.
    pub detail: String,
}

impl CrashReport {
    /// Sites of the run's list whose fault fired in no case of any pass.
    pub fn silent_sites(&self) -> Vec<&'static str> {
        self.fired_by_site.iter().filter(|(_, n)| *n == 0).map(|(s, _)| *s).collect()
    }

    fn note_fired(&mut self, site: &'static str, fired: bool) {
        if let Some((_, n)) = self.fired_by_site.iter_mut().find(|(s, _)| *s == site) {
            *n += fired as u64;
        }
    }

    /// The run's [`Outcome`]. Floors: a fault fired (`fault_floor`);
    /// and once every site of the list was armed at each of its three
    /// trigger hits, a site that fired in no case has fallen off the
    /// write path.
    pub fn outcome(&self) -> Outcome {
        let Config { seed, cases } = self.config;
        let filter = self.sites.as_deref().map(|s| format!(" (sites: {s})")).unwrap_or_default();
        let by_site: Vec<String> =
            self.fired_by_site.iter().map(|(site, n)| format!("{site}={n}")).collect();
        let summary = format!(
            "crash-matrix: {cases} cases from seed {seed}{filter} — {} divergences, \
             {} faults fired, {} torn tails truncated, {} commits restored, \
             {} rotating cases ({} won by a checkpoint), {} failed-rotation cases \
             ({} injected), {} group-commit cases ({} crashed mid-batch)\n\
             fired by site: {}",
            self.divergences.len(),
            self.fired,
            self.torn_tails,
            self.replayed,
            self.rotating_cases,
            self.checkpoint_wins,
            self.rotation_error_cases,
            self.rotation_error_injected,
            self.group_commit_cases,
            self.group_commit_fired,
            by_site.join(" "),
        );
        let silent = self.silent_sites();
        let none_silent = if cases >= 3 * self.fired_by_site.len() as u64 && !silent.is_empty() {
            Err(format!(
                "crash-matrix: fault sites that fired in none of {cases} cases: {}",
                silent.join(", ")
            ))
        } else {
            Ok(())
        };
        let floor = fault_floor("crash-matrix", cases, self.fired).and(none_silent);
        let divergences = self.divergences.iter().map(CrashDivergence::report).collect();
        Outcome { summary, divergences, floor }
    }
}

impl CrashDivergence {
    /// A multi-line report ending in the one-line replay command.
    pub fn report(&self) -> String {
        let filter = self
            .sites
            .as_deref()
            .map(|s| format!(" --sites {s}"))
            .unwrap_or_default();
        format!(
            "CRASH DIVERGENCE seed={} site={} nth={} sync={}\n  {}\n  \
             replay: cargo run -p xic-difftest -- --crash-matrix --seed {} --cases 1{filter}",
            self.seed, self.point.site, self.point.nth, self.point.sync, self.detail, self.seed,
        )
    }
}

/// Outcome of a crash-matrix run.
#[derive(Debug, Default)]
pub struct CrashReport {
    /// The configuration that produced it.
    pub config: Config,
    /// Comma-separated substring filter on fault-site names (e.g.
    /// `checkpoint,rotation`); `None` walked every registered site.
    pub sites: Option<String>,
    /// Cases in which the armed fault actually fired (the site was
    /// reached often enough). Cases where it never fired still run the
    /// full oracle — they degenerate to "recovery of a clean journal".
    pub fired: u64,
    /// Cases whose recovered document was truncated at a torn tail.
    pub torn_tails: u64,
    /// Total commits replayed across all recoveries.
    pub replayed: u64,
    /// Cases whose store rotated automatically (every 1–3 commits); the
    /// rest never rotate.
    pub rotating_cases: u64,
    /// Recoveries won by a checkpoint generation (> 0) rather than the
    /// base document.
    pub checkpoint_wins: u64,
    /// Failed-rotation cases run after the crash matrix proper: an
    /// [`FaultMode::Error`] fault mid-rotation, commits continuing on the
    /// old segment, then a crash (see the module docs).
    pub rotation_error_cases: u64,
    /// Failed-rotation cases in which the armed error actually fired.
    pub rotation_error_injected: u64,
    /// Group-commit cases run after the matrix proper: the same oracle,
    /// but statements are driven through the service's batch path
    /// ([`xicheck::service::apply_batch`]) with the crash landing
    /// mid-batch (see the module docs).
    pub group_commit_cases: u64,
    /// Group-commit cases in which the armed panic actually fired.
    pub group_commit_fired: u64,
    /// Per site of the (filtered) list, the cases of all three passes in
    /// which the fault armed there fired.
    pub fired_by_site: Vec<(&'static str, u64)>,
    /// All divergences, in seed order.
    pub divergences: Vec<CrashDivergence>,
}

/// Wraps a single op back into a complete `<xupdate:modifications>`
/// statement, so a case's ops become a batch of independent statements.
pub(crate) fn wrap_op(op: &str) -> String {
    format!(
        "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">{op}</xupdate:modifications>"
    )
}

struct CaseOutcome {
    fired: bool,
    torn: bool,
    replayed: usize,
    rotating: bool,
    checkpoint_won: bool,
}

/// Removes a case's store directory.
fn cleanup_store(store_dir: &Path) {
    let _ = std::fs::remove_dir_all(store_dir);
}

/// Recovers `case`'s store after a simulated crash (removing it
/// afterwards) and holds the result to the twin: not degraded, and
/// byte-identical to the twin's state after the `p` commits recovery
/// restored — the winning snapshot's baked-in commits plus the suffix
/// replayed on top of it (`snaps[p - 1]`, the base document when
/// `p == 0`). Returns `p` and the recovery report.
fn recover_prefix(
    store_dir: &Path,
    case: &Case,
    base_xml: &str,
    snaps: &[String],
) -> Result<(usize, xicheck::RecoveryReport), String> {
    let recovery = crate::reopen(store_dir, case);
    cleanup_store(store_dir);
    let (recovered, report) = recovery.map_err(|e| format!("recovery failed: {e}"))?;
    if report.degraded {
        return Err(format!(
            "recovery entered degraded mode: {}",
            report.fallback_reasons.join("; ")
        ));
    }
    let p = report.base_commit_seq as usize + report.replayed;
    let outcome = format!(
        "generation {}, {} replayed; twin committed {} in total",
        report.generation,
        report.replayed,
        snaps.len()
    );
    if p > snaps.len() {
        return Err(format!("recovery restored {p} commits ({outcome})"));
    }
    let expected = if p == 0 { base_xml } else { &snaps[p - 1] };
    let got = xic_xml::serialize(recovered.doc());
    if got != expected {
        return Err(format!(
            "recovered document differs from the twin's state after {p} commits \
             ({outcome})\n  expected: {expected}\n  recovered: {got}"
        ));
    }
    Ok((p, report))
}

/// Runs the crash oracle for one seed. `Ok` carries bookkeeping for the
/// matrix report; `Err` is a confirmed divergence.
///
/// Half the seeds (and every seed whose site only exists inside a
/// rotation) run **rotating**: the crashed run's store gets an automatic
/// every-N-commits rotation policy — proving that a crash at any rotation
/// step leaves a store that recovers to the committed prefix, and that
/// rotation never loses a committed record. The rest never rotate.
fn run_case(
    seed: u64,
    dir: &Path,
    sites: &[&'static str],
    sites_arg: Option<&str>,
) -> Result<CaseOutcome, CrashDivergence> {
    let point = crash_point_in(sites, seed);
    let diverge = |detail: String| CrashDivergence {
        seed,
        point,
        sites: sites_arg.map(str::to_string),
        detail,
    };
    let rotating = is_rotation_site(point.site) || (seed / 4) % 2 == 1;
    // Aggressive rotation cadence (every 1–3 commits) so mid-batch
    // rotations — and 2nd/3rd-hit triggers on rotation sites — are
    // actually reached within a short statement batch.
    let checkpoint_every = 1 + (seed / 8) % 3;
    let case: Case = generate_case(seed);
    let statements: Vec<XUpdateDoc> = case
        .ops
        .iter()
        .map(|op| XUpdateDoc::parse(&wrap_op(op)))
        .collect::<Result<_, _>>()
        .map_err(|e| diverge(format!("generated statement does not parse: {e}")))?;

    // Twin run: no store, no faults. Statement outcomes are
    // deterministic, so the crashed run's pre-crash commits are a prefix
    // of the twin's.
    let mut twin = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| diverge(format!("twin checker setup failed: {e}")))?;
    let base_xml = xic_xml::serialize(twin.doc());
    let mut snaps: Vec<String> = Vec::new();
    for stmt in &statements {
        match twin.try_update(stmt) {
            Ok(out) if out.applied() => snaps.push(xic_xml::serialize(twin.doc())),
            Ok(_) => {}
            // A statement the document cannot absorb (dangling select,
            // say) is rejected identically by the crashed run.
            Err(CheckerError::Statement(_)) => {}
            Err(e) => return Err(diverge(format!("twin run failed: {e}"))),
        }
    }

    // Crashed run: store attached, panic armed at the derived point.
    let store_dir = dir.join(crate::scratch_name("crash-store", seed));
    let mut crashed = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| diverge(format!("crashed-run checker setup failed: {e}")))?;
    crashed
        .attach_store(&store_dir, point.sync)
        .map_err(|e| diverge(format!("attach_store failed: {e}")))?;
    if rotating {
        crashed.set_checkpoint_policy(CheckpointPolicy::every_commits(checkpoint_every));
    }
    xic_faults::disarm_all();
    xic_faults::arm(point.site, point.nth, FaultMode::Panic);
    let mut panicked = false;
    for stmt in &statements {
        match crashed.try_update(stmt) {
            Ok(_) | Err(CheckerError::Statement(_)) => {}
            // A panic in the flush is contained there and degrades the
            // checker instead of poisoning it: the crash all the same.
            Err(CheckerError::Panicked(_) | CheckerError::Journal(_))
                if crashed.poisoned() || crashed.degraded() =>
            {
                panicked = true;
                break;
            }
            Err(e) => {
                xic_faults::disarm_all();
                cleanup_store(&store_dir);
                return Err(diverge(format!("crashed run failed pre-crash: {e}")));
            }
        }
    }
    let fired = xic_faults::hits(point.site) >= point.nth;
    xic_faults::disarm_all();
    if fired && !panicked {
        cleanup_store(&store_dir);
        return Err(diverge(format!(
            "armed panic at {} hit {} fired but was not contained as a crash",
            point.site, point.nth
        )));
    }
    drop(crashed); // the in-memory tree is gone

    let (p, report) = recover_prefix(&store_dir, &case, &base_xml, &snaps).map_err(&diverge)?;
    Ok(CaseOutcome {
        fired,
        torn: report.torn_tail_truncated,
        replayed: p,
        rotating,
        checkpoint_won: report.generation > 0,
    })
}

/// Runs the *failed-rotation* oracle for one seed. Where [`run_case`]
/// crashes at a rotation step ([`FaultMode::Panic`]), here the armed
/// fault **returns an injected error** mid-rotation: the rotation fails,
/// the checker stays on its old generation and keeps committing to the
/// old segment, and only then does the process "crash" (the checker is
/// dropped). Recovery must restore the state after *all* acknowledged
/// commits — a durable orphan snapshot left behind by the failed
/// rotation must never win recovery and silently discard the commits
/// appended to the old segment after it. Returns whether the armed error
/// actually fired.
fn run_rotation_error_case(
    seed: u64,
    dir: &Path,
    rot_sites: &[&'static str],
    sites_arg: Option<&str>,
) -> Result<bool, CrashDivergence> {
    let site = site_of(rot_sites, seed);
    let sync = (seed / 2) % 2 == 0;
    // Half the cases rotate successfully once up front, so the failed
    // rotation's orphan would shadow a real snapshot generation rather
    // than just the base document.
    let pre_rotate = (seed / rot_sites.len() as u64) % 2 == 1;
    let point = CrashPoint { site, nth: 1, sync };
    let diverge = |detail: String| CrashDivergence {
        seed,
        point,
        sites: sites_arg.map(str::to_string),
        detail: format!("[rotation-error] {detail}"),
    };
    let case: Case = generate_case(seed);
    let statements: Vec<XUpdateDoc> = case
        .ops
        .iter()
        .map(|op| XUpdateDoc::parse(&wrap_op(op)))
        .collect::<Result<_, _>>()
        .map_err(|e| diverge(format!("generated statement does not parse: {e}")))?;

    // Twin run: the oracle is the state after the *full* batch, since an
    // injected error (unlike a crash) loses no acknowledged commit.
    let mut twin = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| diverge(format!("twin checker setup failed: {e}")))?;
    for stmt in &statements {
        match twin.try_update(stmt) {
            Ok(_) | Err(CheckerError::Statement(_)) => {}
            Err(e) => return Err(diverge(format!("twin run failed: {e}"))),
        }
    }
    let expected = xic_xml::serialize(twin.doc());

    let store_dir = dir.join(crate::scratch_name("crash-roterr", seed));
    let mut crashed = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| diverge(format!("crashed-run checker setup failed: {e}")))?;
    crashed
        .attach_store(&store_dir, sync)
        .map_err(|e| diverge(format!("attach_store failed: {e}")))?;
    // No automatic policy: the injected failure must stay the *last*
    // rotation attempt before the crash, or a later successful rotation
    // would paper over the orphan this case exists to expose.
    if pre_rotate {
        crashed.checkpoint().map_err(|e| {
            cleanup_store(&store_dir);
            diverge(format!("unfaulted pre-rotation failed: {e}"))
        })?;
    }
    let mid = statements.len() / 2;
    let mut injected = false;
    for (i, stmt) in statements.iter().enumerate() {
        if i == mid {
            xic_faults::disarm_all();
            xic_faults::arm(site, 1, FaultMode::Error);
            let res = crashed.checkpoint();
            injected = xic_faults::hits(site) >= 1;
            xic_faults::disarm_all();
            // rotation.pre_old_unlink guards a best-effort step *after*
            // the rotation is durable, so there the call still succeeds.
            if injected && site != "rotation.pre_old_unlink" && res.is_ok() {
                cleanup_store(&store_dir);
                return Err(diverge(format!(
                    "injected error at {site} but checkpoint() reported success"
                )));
            }
        }
        match crashed.try_update(stmt) {
            Ok(_) | Err(CheckerError::Statement(_)) => {}
            Err(e) => {
                cleanup_store(&store_dir);
                return Err(diverge(format!("commit after the failed rotation errored: {e}")));
            }
        }
    }
    drop(crashed); // the crash: in-memory state is gone

    let (recovered, report) = crate::reopen(&store_dir, &case).map_err(|e| {
        cleanup_store(&store_dir);
        diverge(format!("recovery failed: {e}"))
    })?;
    cleanup_store(&store_dir);
    if report.degraded {
        return Err(diverge(format!(
            "recovery entered degraded mode: {}",
            report.fallback_reasons.join("; ")
        )));
    }
    let got = xic_xml::serialize(recovered.doc());
    if got != expected {
        return Err(diverge(format!(
            "recovery dropped commits acknowledged after the failed rotation \
             (generation {}, {} replayed)\n  expected: {expected}\n  recovered: {got}",
            report.generation, report.replayed
        )));
    }
    Ok(injected)
}

/// Runs the *group-commit* oracle for one seed (the service batch path,
/// DESIGN.md row 19). The case's statements are driven through
/// [`xicheck::service::apply_batch`] in batches of 2–4: records are
/// appended **unsynced** and each batch ends with one shared fsync,
/// exactly as a service's batch leader runs it (on the harness thread
/// here because fault arming is thread-scoped). A panic is armed at a write-path
/// site so the crash lands mid-batch; recovery must reproduce the
/// committed prefix of the sequential twin, and must retain every
/// commit from a batch whose shared fsync completed — those were
/// acknowledged to their submitters. Returns `(fired, torn, replayed)`.
fn run_group_commit_case(
    seed: u64,
    dir: &Path,
    gc_sites: &[&'static str],
    sites_arg: Option<&str>,
) -> Result<(bool, bool, usize), CrashDivergence> {
    let site = site_of(gc_sites, seed);
    let nth = 1 + (seed / gc_sites.len() as u64) % 4;
    let point = CrashPoint { site, nth, sync: true };
    let batch_size = 2 + (seed / 8) as usize % 3;
    let diverge = |detail: String| CrashDivergence {
        seed,
        point,
        sites: sites_arg.map(str::to_string),
        detail: format!("[group-commit] {detail}"),
    };
    let case: Case = generate_case(seed);
    let statements: Vec<String> = case.ops.iter().map(|op| wrap_op(op)).collect();
    let parsed = statements
        .iter()
        .map(|stmt| XUpdateDoc::parse(stmt))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| diverge(format!("a statement does not parse: {e}")))?;

    // Twin run: sequential, no store, no faults — the reference
    // committed-prefix states.
    let mut twin = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| diverge(format!("twin checker setup failed: {e}")))?;
    let base_xml = xic_xml::serialize(twin.doc());
    let mut snaps: Vec<String> = Vec::new();
    for stmt in &statements {
        match twin.try_update_str(stmt) {
            Ok(out) if out.applied() => snaps.push(xic_xml::serialize(twin.doc())),
            Ok(_) | Err(CheckerError::Statement(_)) => {}
            Err(e) => return Err(diverge(format!("twin run failed: {e}"))),
        }
    }

    let store_dir = dir.join(crate::scratch_name("crash-gc", seed));
    let mut crashed = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| diverge(format!("crashed-run checker setup failed: {e}")))?;
    crashed
        .attach_store(&store_dir, true)
        .map_err(|e| diverge(format!("attach_store failed: {e}")))?;
    xic_faults::disarm_all();
    xic_faults::arm(site, nth, FaultMode::Panic);
    let mut panicked = false;
    // A panic during the shared fsync is contained by the flush instead
    // of unwinding the checker: the batch is reported `SyncFailed` —
    // never acknowledged — and the checker and the service degrade.
    let mut sync_failed = false;
    // Commits in batches whose shared fsync completed: acknowledged to
    // their submitters, so recovery must never drop them.
    let mut acked = 0usize;
    for chunk in parsed.chunks(batch_size) {
        let items: Vec<BatchStmt> =
            chunk.iter().map(|stmt| BatchStmt { stmt, budget: None }).collect();
        let outcome = apply_batch(&mut crashed, &items);
        let mut batch_applied = 0usize;
        for result in &outcome.results {
            match result {
                Ok(out) if out.outcome.applied() => batch_applied += 1,
                Ok(_) | Err(ServiceError::SyncFailed(_)) => {}
                Err(ServiceError::Checker(
                    CheckerError::Statement(_) | CheckerError::Panicked(_) | CheckerError::Poisoned,
                )) => {
                    if !matches!(
                        result,
                        Err(ServiceError::Checker(CheckerError::Statement(_)))
                    ) {
                        panicked = true;
                    }
                }
                Err(e) => {
                    xic_faults::disarm_all();
                    cleanup_store(&store_dir);
                    return Err(diverge(format!("crashed run failed pre-crash: {e}")));
                }
            }
        }
        // Read off the batch, not its results: a failed flush is the
        // crash whatever the batch's results say.
        sync_failed = matches!(outcome.disposition, BatchDisposition::SyncFailed(_));
        if panicked || sync_failed {
            break; // the crash: nothing after this batch was acknowledged
        }
        acked += batch_applied;
    }
    let fired = xic_faults::hits(site) >= nth;
    xic_faults::disarm_all();
    if fired && !panicked && !sync_failed {
        cleanup_store(&store_dir);
        return Err(diverge(format!(
            "armed panic at {site} hit {nth} fired but was not contained as a crash"
        )));
    }
    drop(crashed); // the in-memory tree is gone

    let (p, report) = recover_prefix(&store_dir, &case, &base_xml, &snaps).map_err(&diverge)?;
    if p < acked {
        return Err(diverge(format!(
            "recovery lost acknowledged commits: {acked} were in fsynced batches but only \
             {p} restored"
        )));
    }
    Ok((fired, report.torn_tail_truncated, p))
}

/// Runs `config.cases` crash cases starting at `config.seed` over the
/// sites `sites_arg` keeps (see [`filter_sites`]). Store directories live
/// in the system temp directory and are removed per case.
pub fn run_matrix(config: Config, sites_arg: Option<&str>) -> CrashReport {
    let sites = filter_sites(sites_arg);
    let mut report = CrashReport {
        config,
        sites: sites_arg.map(str::to_string),
        fired_by_site: sites.iter().map(|&s| (s, 0)).collect(),
        ..Default::default()
    };
    if sites.is_empty() {
        report.divergences.push(CrashDivergence {
            seed: config.seed,
            point: CrashPoint { site: "<none>", nth: 0, sync: false },
            sites: report.sites.clone(),
            detail: "the --sites filter matches no registered fault site".to_string(),
        });
        return report;
    }
    each_case(config, |seed, dir| match run_case(seed, dir, &sites, sites_arg) {
        Ok(out) => {
            report.fired += out.fired as u64;
            report.note_fired(site_of(&sites, seed), out.fired);
            report.torn_tails += out.torn as u64;
            report.replayed += out.replayed as u64;
            report.rotating_cases += out.rotating as u64;
            report.checkpoint_wins += out.checkpoint_won as u64;
        }
        Err(d) => report.divergences.push(d),
    });
    // Failed-rotation pass: Error-mode faults at each reachable
    // checkpoint/rotation site, with commits continuing after the
    // injected failure and the crash landing later. Two cases per site
    // cover both halves of the `pre_rotate` toggle.
    let rot_sites: Vec<&'static str> =
        sites.iter().copied().filter(|s| is_rotation_site(s)).collect();
    let rot_pass = Config { cases: 2 * rot_sites.len() as u64, ..config };
    each_case(rot_pass, |seed, dir| {
        report.rotation_error_cases += 1;
        match run_rotation_error_case(seed, dir, &rot_sites, sites_arg) {
            Ok(injected) => {
                report.rotation_error_injected += injected as u64;
                report.note_fired(site_of(&rot_sites, seed), injected);
            }
            Err(d) => report.divergences.push(d),
        }
    });
    // Group-commit pass: the same statements driven through the
    // service's batch path (unsynced appends, one shared fsync per
    // batch) with a panic armed at each write-path site. Recovery must
    // reproduce the twin's committed prefix and never drop a commit
    // from a batch whose shared fsync completed.
    let gc_sites: Vec<&'static str> =
        sites.iter().copied().filter(|s| !is_rotation_site(s)).collect();
    let gc_pass = Config { cases: 2 * gc_sites.len() as u64, ..config };
    each_case(gc_pass, |seed, dir| {
        report.group_commit_cases += 1;
        match run_group_commit_case(seed, dir, &gc_sites, sites_arg) {
            Ok((fired, torn, replayed)) => {
                report.group_commit_fired += fired as u64;
                report.note_fired(site_of(&gc_sites, seed), fired);
                report.torn_tails += torn as u64;
                report.replayed += replayed as u64;
            }
            Err(d) => report.divergences.push(d),
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_points_cover_every_site_round_robin() {
        let n = SITES.len() as u64;
        let covered: std::collections::HashSet<&str> =
            (100..100 + n).map(|s| crash_point(s).site).collect();
        assert_eq!(covered.len(), SITES.len());
        // Replay determinism: the point is a pure function of the seed.
        assert_eq!(crash_point(4242), crash_point(4242));
    }

    #[test]
    fn small_matrix_has_no_divergences() {
        // Enough cases to cover every site at least twice, kept small so
        // `cargo test` stays fast; ci.sh runs the 100-case smoke.
        let report = run_matrix(Config { seed: 1, cases: 2 * SITES.len() as u64 }, None);
        for d in &report.divergences {
            eprintln!("{}", d.report());
        }
        assert!(report.divergences.is_empty());
        assert!(report.fired > 0, "no armed fault ever fired");
        assert!(report.rotating_cases > 0, "no case rotated");
        assert!(report.rotating_cases < report.config.cases, "no case ran without rotation");
        // Every registered site fired somewhere across the three passes.
        assert_eq!(report.fired_by_site.len(), SITES.len());
        assert!(report.silent_sites().is_empty(), "silent: {:?}", report.silent_sites());
        // The unfiltered site list reaches the rotation sites, so the
        // failed-rotation pass must have run and actually injected.
        assert!(report.rotation_error_cases > 0, "no failed-rotation case ran");
        assert!(report.rotation_error_injected > 0, "no rotation error ever fired");
        // ... and the write-path sites, so the group-commit pass must
        // have run and actually crashed mid-batch somewhere.
        assert!(report.group_commit_cases > 0, "no group-commit case ran");
        assert!(report.group_commit_fired > 0, "no group-commit crash ever fired");
    }

    #[test]
    fn floors_catch_a_run_that_fired_nothing_and_a_silent_site() {
        let report = |cases, fired_by_site: Vec<(&'static str, u64)>| CrashReport {
            config: Config { seed: 1, cases },
            fired: fired_by_site.iter().map(|(_, n)| n).sum(),
            fired_by_site,
            ..Default::default()
        };
        let floor = report(100, vec![("journal.sync", 0)]).outcome().floor.unwrap_err();
        assert!(floor.contains("no armed fault ever fired in 100 cases"), "{floor}");
        assert_eq!(report(2, vec![("journal.sync", 0)]).outcome().floor, Ok(()));
        // Three rounds over a two-site list: each site was armed at each
        // of its trigger hits, so the one that never fired is reported.
        let one_silent = || vec![("journal.sync", 4), ("checker.commit.pre", 0)];
        let floor = report(6, one_silent()).outcome().floor.unwrap_err();
        assert!(floor.contains("fired in none of 6 cases: checker.commit.pre"), "{floor}");
        assert_eq!(report(5, one_silent()).outcome().floor, Ok(()));
        assert_eq!(report(100, vec![("journal.sync", 43)]).outcome().floor, Ok(()));
    }

    #[test]
    fn group_commit_pass_skipped_for_rotation_only_filter() {
        // A rotation-only site filter has no write-path sites for the
        // group-commit pass to arm; it must be skipped, not fail.
        let report = run_matrix(Config { seed: 3, cases: 2 }, Some("checkpoint,rotation"));
        assert!(report.divergences.is_empty());
        assert_eq!(report.group_commit_cases, 0);
    }

    #[test]
    fn site_filter_restricts_and_replays_consistently() {
        let rotation = filter_sites(Some("checkpoint,rotation"));
        assert!(!rotation.is_empty());
        assert!(rotation.iter().all(|s| is_rotation_site(s)), "{rotation:?}");
        // Points derived from the filtered list are stable for replay.
        assert_eq!(crash_point_in(&rotation, 7), crash_point_in(&rotation, 7));
        assert!(filter_sites(Some("no-such-site")).is_empty());
        assert_eq!(filter_sites(None).len(), SITES.len());
    }

    #[test]
    fn rotation_sites_matrix_recovers_at_every_step() {
        // One pass over exactly the checkpoint/rotation sites: a crash
        // injected at every individual rotation step must leave a store
        // that recovers to the committed prefix.
        let rotation = filter_sites(Some("checkpoint,rotation"));
        let report = run_matrix(
            Config { seed: 11, cases: rotation.len() as u64 },
            Some("checkpoint,rotation"),
        );
        for d in &report.divergences {
            eprintln!("{}", d.report());
        }
        assert!(report.divergences.is_empty());
        assert_eq!(report.rotating_cases, rotation.len() as u64);
        // The failed-rotation pass covers every rotation site twice
        // (with and without a pre-existing snapshot generation).
        assert_eq!(report.rotation_error_cases, 2 * rotation.len() as u64);
        assert!(report.rotation_error_injected > 0, "no rotation error ever fired");
    }
}
