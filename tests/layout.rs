//! Compile-time/size regression tests for the packed agent-state layouts.
//!
//! At n ≥ 10⁵ the agent array outgrows L2 and raw stepping is bound by the
//! memory latency of the two random agent loads per interaction, so bytes
//! per state translate directly into throughput. These tests pin the
//! layout invariants the stepping engine's performance rests on:
//!
//! * `DscState` ≤ 32 bytes — two states per 64-byte cache line;
//! * every payload-carrying state stores its whole payload *inline*
//!   (fixed-capacity arrays, no heap pointer), so an agent access never
//!   chases a pointer;
//! * the inline capacities match the documented payload bounds.
//!
//! Growing any of these is allowed — but it is a deliberate performance
//! decision that must update this file (and the README layout notes), not
//! an accident of adding a field.

use dynamic_size_counting::dsc::{AveragedState, DscState, SlotVec, MAX_SLOTS};
use dynamic_size_counting::protocols::{De19State, De22State, DE19_MAX_SLOTS, DE22_MAX_VALUES};
use std::mem::{align_of, size_of};

#[test]
fn dsc_state_fits_half_a_cache_line() {
    // The tentpole invariant: 24 bytes packed (was 40 at the seed), so two
    // states share a 64-byte line with room to spare.
    assert!(size_of::<DscState>() <= 32);
    assert_eq!(size_of::<DscState>(), 24);
    assert_eq!(align_of::<DscState>(), 8);
}

#[test]
fn averaged_state_is_inline_and_bounded() {
    // dsc (24) + two inline slot arrays (len + MAX_SLOTS × u32 each).
    let slot_vec = size_of::<SlotVec>();
    assert!(slot_vec <= MAX_SLOTS * 4 + 4);
    assert!(size_of::<AveragedState>() <= size_of::<DscState>() + 2 * slot_vec + 8);
}

#[test]
fn de19_state_is_inline_and_bounded() {
    assert!(size_of::<De19State>() <= DE19_MAX_SLOTS * 4 + 4 + 4);
}

#[test]
fn de22_state_is_inline_and_bounded() {
    // Inline timers only: len + DE22_MAX_VALUES × u32.
    assert!(size_of::<De22State>() <= DE22_MAX_VALUES * 4 + 4);
}

#[test]
fn payload_states_are_copy() {
    // Inline storage makes the payload states plain-old-data: the gather/
    // scatter engine copies them with memcpy, never a heap clone. `Copy`
    // bounds are the compile-time proof.
    fn assert_copy<T: Copy>() {}
    assert_copy::<DscState>();
    assert_copy::<AveragedState>();
    assert_copy::<De19State>();
    assert_copy::<De22State>();
}
