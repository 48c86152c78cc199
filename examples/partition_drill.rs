//! A deterministic partition drill: walk a 7-site ring through a scripted
//! outage, watching what each protocol allows at every step.
//!
//!     cargo run -p quorum-examples --release --bin partition_drill
//!
//! Uses the scripted scenario executor (the same machinery the stochastic
//! simulator runs on) to replay a concrete §2.2-style incident: a link
//! cut, a second cut creating a true partition, a quorum reassignment in
//! the majority side, and the heal — with one-copy-serializability
//! checked at every access.

use quorum_core::{Access, Decision, QrProtocol, QuorumSpec, VoteAssignment};
use quorum_graph::Topology;
use quorum_replica::script::{Scenario, Step};

fn show(step: &str, outcome: &quorum_replica::script::AccessOutcome) {
    println!(
        "{step:<44} site {} sees {} votes → {:?}{}",
        outcome.site,
        outcome.votes,
        outcome.decision,
        if outcome.decision == Decision::Granted && !outcome.consistent {
            "  ⚠ INCONSISTENT"
        } else {
            ""
        }
    );
}

fn main() {
    // Ring of 7: links i connect (i, i+1 mod 7).
    let topo = Topology::ring(7);
    let mut sc = Scenario::new(&topo);
    let mut qr = QrProtocol::new(VoteAssignment::uniform(7), QuorumSpec::majority(7));
    println!("7-site ring, majority quorums (q_r = q_w = 4), QR protocol\n");

    // Healthy baseline.
    sc.step(&mut qr, Step::Access(Access::Write, 0));
    show("all up: write at site 0", sc.last());

    // One link down: ring stays connected.
    sc.step(&mut qr, Step::FailLink(2));
    sc.step(&mut qr, Step::Access(Access::Read, 3));
    show("link (2,3) down: read at site 3", sc.last());

    // Second cut partitions {3,4,5,6} from {0,1,2}.
    sc.step(&mut qr, Step::FailLink(6));
    sc.step(&mut qr, Step::Access(Access::Write, 1));
    show("also (6,0) down: write at site 1 (3 votes)", sc.last());
    sc.step(&mut qr, Step::Access(Access::Write, 4));
    show("                 write at site 4 (4 votes)", sc.last());

    // The majority side tries to loosen reads via QR. Installing (3,5)
    // needs max(q_w_old, q_w_new) = max(4, 5) = 5 votes (the corrected
    // joint rule — the refreshed copies must cover the new write quorum),
    // and only 4 are present: the protocol refuses, visibly.
    let members = sc.members_of(4);
    let new_spec = QuorumSpec::from_read_quorum(3, 7).expect("(3,5) of 7 satisfies both rules");
    match qr.try_reassign(&members, new_spec) {
        Ok(v) => println!("reassign to (3,5) in majority side: installed version {v}"),
        Err(e) => println!("reassign to (3,5) in majority side: refused ({e})"),
    }

    // A site failure splits the majority side: {3,4} | {6}.
    sc.step(&mut qr, Step::FailSite(5));
    sc.step(&mut qr, Step::Access(Access::Write, 4));
    show("site 5 down: write at site 4 (2 votes)", sc.last());
    sc.step(&mut qr, Step::Access(Access::Read, 4));
    show("             read at site 4", sc.last());

    // Heal everything; the minority learns the state on first contact.
    sc.step(&mut qr, Step::RepairSite(5));
    sc.step(&mut qr, Step::RepairLink(2));
    sc.step(&mut qr, Step::RepairLink(6));
    sc.step(&mut qr, Step::Access(Access::Read, 1));
    show("healed: read at site 1", sc.last());
    sc.step(&mut qr, Step::Access(Access::Write, 2));
    show("        write at site 2", sc.last());

    println!("\nevery granted access consistent: {}", sc.all_consistent());
    println!(
        "final assignment: version {}, spec {}",
        qr.global_max_version(),
        qr.site(0).spec
    );
}
