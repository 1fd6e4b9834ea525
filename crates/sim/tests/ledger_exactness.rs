//! The ledger's hot bucket against the full split it short-cuts: fed
//! the same segments, an `EnergyLedger` and the reference ledger (the
//! split applied to every segment) hold the same bits in every bucket,
//! total and snapshot. Segment ends sit on and a few ulps around bucket
//! boundaries, where a quotient's rounding decides which buckets a
//! segment touches.

mod reference;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use reference::RefLedger;
use sleepscale_journal::{ByteReader, ByteWriter, Snapshot};
use sleepscale_power::Watts;
use sleepscale_sim::{ClassId, EnergyLedger};

/// Bucket widths: whole seconds, a binary fraction, and two widths
/// whose multiples round.
const WIDTHS: [f64; 5] = [300.0, 60.0, 7.5, 0.1, 1.0 / 3.0];

/// `x ≥ 0` moved by `ulps` units in the last place, clamped at zero.
fn nudge(x: f64, ulps: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + ulps).max(0) as u64)
}

/// SplitMix64: a case's inputs are drawn from one proptest seed, so a
/// failure names the seed that reproduces it.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A segment endpoint within a few buckets of `base`: mostly a bucket
/// start `b·width` (or the previous bucket's computed end
/// `(b−1)·width + width`) moved by up to 3 ulps either way, sometimes a
/// point inside a bucket.
fn point(draw: &mut Draw, base: u64, width: f64) -> f64 {
    let b = base + draw.below(5);
    if draw.below(4) == 0 {
        return (b as f64 + draw.unit()) * width;
    }
    let edge =
        if b > 0 && draw.below(2) == 0 { (b - 1) as f64 * width + width } else { b as f64 * width };
    nudge(edge, draw.below(7) as i64 - 3)
}

/// One segment: start, end, watts, and the class of an active segment
/// (`None`: idle).
type Segment = (f64, f64, f64, Option<u16>);

/// Segments near `base`, in random order: overlapping, some empty or
/// reversed, idle and active interleaved, with class tags past the
/// ledger's inline class capacity.
fn segments(draw: &mut Draw, base: u64, width: f64) -> Vec<Segment> {
    let n = 1 + draw.below(48);
    (0..n)
        .map(|_| {
            let (start, end) = (point(draw, base, width), point(draw, base, width));
            let watts = 1.0 + 299.0 * draw.unit();
            let class = (draw.below(3) != 0).then(|| draw.below(7) as u16);
            (start, end, watts, class)
        })
        .collect()
}

fn feed(ledger: &mut EnergyLedger, reference: &mut RefLedger, (start, end, watts, class): Segment) {
    match class {
        Some(c) => {
            ledger.add_active_segment(start, end, Watts::new(watts), ClassId(c));
            reference.add_active_segment(start, end, Watts::new(watts), ClassId(c));
        }
        None => {
            ledger.add_segment(start, end, Watts::new(watts));
            reference.add_segment(start, end, Watts::new(watts));
        }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Totals and the class split, bit for bit.
fn same_totals(ledger: &EnergyLedger, reference: &RefLedger) -> Result<(), TestCaseError> {
    prop_assert_eq!(ledger.total_energy().as_joules().to_bits(), reference.total.to_bits());
    prop_assert_eq!(ledger.end_of_time().to_bits(), reference.end_of_time.to_bits());
    prop_assert_eq!(ledger.active_energy().as_joules().to_bits(), reference.active_total.to_bits());
    prop_assert_eq!(bits(ledger.active_energy_by_class()), bits(&reference.active_by_class));
    Ok(())
}

/// The bucket count and the buckets in `range`, bit for bit.
fn same_buckets(
    ledger: &EnergyLedger,
    reference: &RefLedger,
    range: std::ops::Range<usize>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(ledger.bucket_count(), reference.buckets.len());
    for i in range {
        let energy = reference.buckets.get(i).copied().unwrap_or(0.0);
        let busy = reference.busy_buckets.get(i).copied().unwrap_or(0.0);
        prop_assert_eq!(ledger.bucket_energy(i).as_joules().to_bits(), energy.to_bits(), "{}", i);
        prop_assert_eq!(ledger.bucket_busy_seconds(i).to_bits(), busy.to_bits(), "busy {}", i);
    }
    Ok(())
}

/// The snapshot bytes, which carry both bucket vectors' lengths.
fn same_snapshot(ledger: &EnergyLedger, reference: &RefLedger) -> Result<(), TestCaseError> {
    let (mut got, mut want) = (ByteWriter::new(), ByteWriter::new());
    ledger.snapshot(&mut got);
    reference.snapshot(&mut want);
    prop_assert!(got.as_bytes() == want.as_bytes(), "snapshot bytes differ");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Near the start of time and near bucket 10⁶, on bucketed and
    /// totals-only ledgers, then again after a snapshot round trip.
    #[test]
    fn hot_bucket_matches_the_full_split(seed in 0u64..u64::MAX) {
        let mut draw = Draw(seed);
        let width = WIDTHS[draw.below(WIDTHS.len() as u64) as usize];
        let base = if draw.below(6) == 0 { 999_990 + draw.below(10) } else { draw.below(40) };
        let segments = segments(&mut draw, base, width);
        let mut ledger = EnergyLedger::new(width);
        let mut reference = RefLedger::new(width);
        let mut totals = EnergyLedger::totals_only();
        let mut reference_totals = RefLedger::totals_only();
        let window = (base as usize).saturating_sub(2)..base as usize + 8;
        for (i, &seg) in segments.iter().enumerate() {
            feed(&mut ledger, &mut reference, seg);
            feed(&mut totals, &mut reference_totals, seg);
            same_totals(&ledger, &reference)?;
            same_totals(&totals, &reference_totals)?;
            if i % 6 == 5 {
                same_buckets(&ledger, &reference, window.clone())?;
            }
            if i == segments.len() / 2 {
                same_snapshot(&ledger, &reference)?;
            }
        }
        same_buckets(&ledger, &reference, 0..reference.buckets.len() + 2)?;
        same_snapshot(&ledger, &reference)?;
        prop_assert_eq!(totals.bucket_count(), 0);
        // A restored ledger starts cold and keeps matching.
        let mut w = ByteWriter::new();
        ledger.snapshot(&mut w);
        let mut restored = EnergyLedger::restore(&mut ByteReader::new(w.as_bytes())).unwrap();
        prop_assert!(restored == ledger, "restored ledger differs");
        for &seg in segments.iter().rev() {
            feed(&mut restored, &mut reference, seg);
        }
        same_totals(&restored, &reference)?;
        same_buckets(&restored, &reference, 0..reference.buckets.len() + 2)?;
        same_snapshot(&restored, &reference)?;
    }
}

/// The rounding cases `EnergyLedger`'s rustdoc documents, as the split
/// computes them.
#[test]
fn documented_boundary_rounding_holds() {
    for width in [1.0, 60.0, 300.0, 600.0, 3600.0] {
        for b in 0..2_000_000_u64 {
            let start = b as f64 * width;
            assert_eq!(start / width, b as f64, "width {width}, bucket {b}");
            assert_eq!(start + width, (b + 1) as f64 * width, "width {width}, bucket {b}");
        }
    }
    assert_eq!((1.7_f64 / 0.1).floor(), 17.0);
    let mut ledger = EnergyLedger::new(0.1);
    ledger.add_segment(1.7, 1.75, Watts::new(1.0));
    assert_eq!(ledger.bucket_energy(16).as_joules(), 0.0);
    let lost = (1.75 - 1.7) - ledger.bucket_energy(17).as_joules();
    assert_eq!(lost, 2.220446049250313e-16);
    let mismatched =
        (0..2_000_000_u64).filter(|&b| b as f64 * 0.1 + 0.1 != (b + 1) as f64 * 0.1).count();
    assert_eq!(mismatched, 574_752);
}
