//! Property tests over [`layout`], the store's single recovery rule.
//!
//! The rule is a pure function of a directory listing and the floor, so
//! it can be swept over directories no crash sequence would be asked to
//! produce one at a time: history ranges nested, overlapping and
//! straddling the floor, rotation segments below, inside and above
//! `floor..wal_index`, up to three WALs, `*.tmp` leftovers and foreign
//! names. Three properties hold wherever the rule accepts a directory:
//! every name lands in exactly one class; the live files cover exactly
//! what recovery replays; and repair is a fixed point — recovering a
//! recovered directory removes nothing.

use std::collections::BTreeSet;
use std::io;

use proptest::prelude::*;

use hierod_store::store::{hist_name, layout, seg_name, Layout, FLOOR_NAME};

fn wal_name(index: u64) -> String {
    format!("wal-{index}.log")
}

fn stale(l: &Layout) -> Vec<String> {
    let by_kind = [
        &l.stale_tmp,
        &l.stale_hist,
        &l.stale_segments,
        &l.stale_wals,
    ];
    by_kind.into_iter().flatten().cloned().collect()
}

fn live(l: &Layout) -> Vec<String> {
    let wal = l.wal_present.then(|| wal_name(l.wal_index));
    l.sealed_names().chain(wal).collect()
}

/// Everything the properties ask of an accepted directory.
fn check_accepted(names: &BTreeSet<String>, l: &Layout) {
    // Exactly one class per name: the three classes, concatenated, are
    // a permutation of the listing (whose names are distinct).
    let mut classified: Vec<String> = live(l);
    classified.extend(stale(l));
    classified.extend(l.ignored.iter().cloned());
    classified.sort();
    let listed: Vec<String> = names.iter().cloned().collect();
    prop_assert_eq!(&classified, &listed);

    // Live history tiles `0..floor`; `sealed_names` spells the live
    // segments out as `floor..wal_index`, all of them listed (above).
    let mut next = 0;
    for &(lo, hi) in &l.hist {
        prop_assert_eq!(lo, next);
        prop_assert!(lo <= hi && hi < l.floor);
        next = hi + 1;
    }
    prop_assert_eq!(next, l.floor);
    prop_assert!(l.floor <= l.wal_index);

    // Repair is a fixed point.
    let gone: BTreeSet<String> = stale(l).into_iter().collect();
    let repaired: Vec<String> = names.difference(&gone).cloned().collect();
    let again = layout(&repaired, l.floor).expect("a repaired directory is accepted");
    prop_assert_eq!(live(&again), live(l));
    prop_assert_eq!(stale(&again), Vec::<String>::new());
    prop_assert_eq!(&again.ignored, &l.ignored);
    prop_assert_eq!(
        (again.wal_index, again.wal_present),
        (l.wal_index, l.wal_present)
    );
}

fn ranges() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0_u64..7, 0_u64..4), 0..6)
        .prop_map(|v| v.into_iter().map(|(lo, len)| (lo, lo + len)).collect())
}

fn indices(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0_u64..9, 0..max_len + 1)
}

fn tmp_of(names: &BTreeSet<String>, picks: &[usize]) -> Vec<String> {
    let all: Vec<&String> = names.iter().collect();
    let mut tmps = vec![format!("{FLOOR_NAME}.tmp")];
    if !all.is_empty() {
        tmps.extend(picks.iter().map(|&i| format!("{}.tmp", all[i % all.len()])));
    }
    tmps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Any mix of store file names: accepted or refused with a typed
    /// error, never anything else, and accepted only consistently.
    #[test]
    fn arbitrary_directories_are_classified_once_or_refused(
        floor in 0_u64..5,
        hist in ranges(),
        segs in indices(6),
        wals in indices(3),
        tmp_picks in prop::collection::vec(0_usize..64, 0..3),
    ) {
        let mut names: BTreeSet<String> = BTreeSet::new();
        names.extend(hist.iter().map(|&(lo, hi)| hist_name(lo, hi)));
        names.extend(segs.iter().map(|&i| seg_name(i)));
        names.extend(wals.iter().map(|&i| wal_name(i)));
        names.insert(FLOOR_NAME.to_string());
        names.insert("lost+found".to_string());
        let tmps = tmp_of(&names, &tmp_picks);
        names.extend(tmps);
        let listed: Vec<String> = names.iter().cloned().collect();
        match layout(&listed, floor) {
            Ok(l) => check_accepted(&names, &l),
            Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
        }
    }

    /// A consistent directory stays accepted, with the same live files,
    /// under every leftover an interrupted rotation or compaction can
    /// strand in it — and each leftover lands in the class the module
    /// docs give it.
    #[test]
    fn leftovers_never_change_what_is_live(
        cuts in prop::collection::vec(1_u64..4, 0..4),
        sealed in 0_u64..4,
        wal_present in any::<bool>(),
        nested in prop::collection::vec((0_usize..8, 0_u64..3, 0_u64..3), 0..4),
        uncommitted in prop::collection::vec((0_u64..9, 0_u64..4), 0..3),
        below in indices(3),
        above in indices(3),
        lower_wals in indices(2),
        tmp_picks in prop::collection::vec(0_usize..64, 0..3),
    ) {
        // The consistent base: history files of the cut widths, then
        // `sealed` rotation segments, then (maybe) the active WAL.
        let mut live_hist = Vec::new();
        let mut floor = 0;
        for width in cuts {
            live_hist.push((floor, floor + width - 1));
            floor += width;
        }
        let wal_index = floor + sealed;
        let mut want_live: Vec<String> =
            live_hist.iter().map(|&(lo, hi)| hist_name(lo, hi)).collect();
        want_live.extend((floor..wal_index).map(seg_name));
        want_live.extend(wal_present.then(|| wal_name(wal_index)));
        let mut names: BTreeSet<String> = want_live.iter().cloned().collect();

        // Superseded: a strict sub-range of a live history file.
        let mut want_stale = BTreeSet::new();
        for (pick, skip, trim) in nested {
            let Some(&(lo, hi)) = live_hist.get(pick % live_hist.len().max(1)) else { continue };
            let (sub_lo, sub_hi) = (lo + skip, hi.saturating_sub(trim));
            if sub_lo <= sub_hi && sub_hi <= hi && (sub_lo, sub_hi) != (lo, hi) {
                want_stale.insert(hist_name(sub_lo, sub_hi));
            }
        }
        // Uncommitted: a history file that reaches the floor, straddling
        // it or wholly above.
        for (lo, len) in uncommitted {
            want_stale.insert(hist_name(lo, (lo + len).max(floor)));
        }
        want_stale.extend(below.iter().filter(|&&i| i < floor).map(|&i| seg_name(i)));
        want_stale.extend(lower_wals.iter().filter(|&&i| wal_present && i < wal_index).map(|&i| wal_name(i)));
        // Ignored: an aborted rotation's segment at or above the WAL
        // index — which only a directory with a WAL can hold.
        let want_ignored: BTreeSet<String> = above
            .iter()
            .filter(|_| wal_present)
            .map(|&i| seg_name(wal_index + i))
            .chain([FLOOR_NAME.to_string()])
            .collect();
        names.extend(want_stale.iter().cloned());
        names.extend(want_ignored.iter().cloned());
        let tmps = tmp_of(&names, &tmp_picks);
        want_stale.extend(tmps.iter().cloned());
        names.extend(tmps);

        let listed: Vec<String> = names.iter().cloned().collect();
        let l = layout(&listed, floor).expect("leftovers do not break a consistent directory");
        prop_assert_eq!((l.floor, l.wal_index, l.wal_present), (floor, wal_index, wal_present));
        prop_assert_eq!(live(&l), want_live);
        prop_assert_eq!(stale(&l).into_iter().collect::<BTreeSet<_>>(), want_stale);
        prop_assert_eq!(l.ignored.iter().cloned().collect::<BTreeSet<_>>(), want_ignored);
        check_accepted(&names, &l);
    }
}
