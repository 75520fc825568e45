//! The `Protocol::ONE_WAY` contract, pinned for every protocol that claims
//! it.
//!
//! `ONE_WAY = true` lets the observers (`RecoveryObserver`, `TickRecorder`)
//! skip all responder-side bookkeeping; a protocol that claims it but
//! mutates `v` silently desynchronizes every incremental metric. This
//! suite runs each claimant under a guard observer that snapshots the
//! responder before every interaction and asserts it unchanged after —
//! driven from states the protocol actually reaches, not just fresh ones.

use dynamic_size_counting::dsc::{
    AveragedDsc, DscConfig, DynamicSizeCounting, SimplifiedDynamicSizeCounting,
};
use dynamic_size_counting::model::Protocol;
use dynamic_size_counting::protocols::{
    BoundedChvp, Clvp, De19Averaging, De22Counting, Infection, MaxEpidemic, ModMClock,
    StaticGrvCounting,
};
use dynamic_size_counting::sim::observer::Observer;
use dynamic_size_counting::sim::Simulator;

/// Asserts after every interaction that the responder state is unchanged.
struct ResponderGuard<S> {
    pre_v: Option<S>,
    checked: u64,
}

impl<S> Default for ResponderGuard<S> {
    fn default() -> Self {
        ResponderGuard {
            pre_v: None,
            checked: 0,
        }
    }
}

impl<P: Protocol> Observer<P> for ResponderGuard<P::State> {
    fn pre_interact(&mut self, _: &P, _: &P::State, v: &P::State, _: usize, _: usize, _: u64) {
        self.pre_v = Some(v.clone());
    }
    fn post_interact(&mut self, _: &P, _: &P::State, v: &P::State, _: usize, vi: usize, t: u64) {
        assert!(
            self.pre_v.as_ref() == Some(v),
            "responder (agent {vi}) mutated at interaction {t} by a protocol claiming ONE_WAY"
        );
        self.checked += 1;
    }
    fn agent_added(&mut self, _: &P, _: &P::State) {}
    fn agent_removed(&mut self, _: &P, _: &P::State) {}
}

/// Runs `protocol` for `time` parallel time on 64 agents under the guard.
/// `plant` may seed diversity (protocols whose fresh configurations are
/// already quiescent need a nontrivial state to exercise every branch).
fn guard<P>(protocol: P, time: f64, plant: impl FnOnce(&mut Simulator<P, ResponderGuard<P::State>>))
where
    P: Protocol,
{
    assert!(P::ONE_WAY, "this suite only covers ONE_WAY claimants");
    let mut sim = Simulator::with_observer(protocol, 64, 0xD5C0, ResponderGuard::default());
    plant(&mut sim);
    sim.run_parallel_time(time);
    let checked = sim.observer().checked;
    assert!(
        checked >= 64 * time as u64,
        "guard saw {checked} interactions"
    );
}

fn empirical() -> DscConfig {
    DscConfig::empirical()
}

#[test]
fn dsc_family_is_one_way() {
    guard(DynamicSizeCounting::new(empirical()), 300.0, |_| {});
    guard(
        SimplifiedDynamicSizeCounting::new(empirical()),
        300.0,
        |_| {},
    );
    guard(AveragedDsc::new(empirical(), 8), 300.0, |_| {});
}

#[test]
fn substrates_are_one_way() {
    guard(MaxEpidemic::new(), 50.0, |sim| *sim.state_mut(0) = 99);
    guard(Infection::new(), 50.0, |sim| *sim.state_mut(0) = true);
    guard(Clvp::new(200), 50.0, |sim| *sim.state_mut(0) = 3);
    guard(BoundedChvp::new(100), 50.0, |sim| *sim.state_mut(0) = 90);
    guard(ModMClock::new(32), 100.0, |_| {});
}

#[test]
fn counting_baselines_are_one_way() {
    guard(De19Averaging::new(8), 100.0, |_| {});
    guard(De22Counting::new(), 100.0, |_| {});
    guard(StaticGrvCounting::new(16), 100.0, |_| {});
}
