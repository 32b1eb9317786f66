//! Fleet-scale soak properties: the Zipf demand model behaves like Zipf,
//! and a full fleet simulation — budget pressure, popularity decay and a
//! lively fault schedule all enabled — replays bit-identically (report *and*
//! metric snapshot) at every worker-thread count.

use squirrel_repro::core::{run_fleet_with_metrics, FleetConfig, HoardBudget};
use squirrel_repro::dataset::rng::{SplitMix64, Zipf};
use squirrel_repro::faults::FaultConfig;
use squirrel_repro::hash::ContentHash;

// ---------------------------------------------------------------- Zipf ----

/// Fraction of `samples` draws landing in the top decile of ranks.
fn head_mass(n: u64, s: f64, seed: u64, samples: u32) -> f64 {
    let z = Zipf::new(n, s);
    let mut rng = SplitMix64::new(seed);
    let head_cut = (n / 10).max(1);
    let mut head = 0u32;
    for _ in 0..samples {
        if z.sample(&mut rng) < head_cut {
            head += 1;
        }
    }
    f64::from(head) / f64::from(samples)
}

#[test]
fn zipf_ranks_stay_in_bounds_across_shapes() {
    for (n, s) in [(1, 1.1), (2, 0.5), (7, 1.01), (100, 1.5), (10_000, 2.5)] {
        let z = Zipf::new(n, s);
        assert_eq!((z.n(), z.exponent()), (n, s));
        let mut rng = SplitMix64::from_parts(&[n, s.to_bits()]);
        for _ in 0..5_000 {
            assert!(z.sample(&mut rng) < n, "n={n} s={s}");
        }
    }
}

#[test]
fn zipf_sequences_replay_from_the_seed() {
    let z = Zipf::new(607, 1.1);
    let draw = |seed: u64| -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..1_000).map(|_| z.sample(&mut rng)).collect()
    };
    assert_eq!(draw(2014), draw(2014));
    assert_ne!(draw(2014), draw(2015), "different seeds must diverge");
}

#[test]
fn zipf_head_mass_grows_with_the_exponent() {
    // Skew monotonicity: a larger exponent concentrates more mass on the
    // head ranks. Deterministic draws, so strict ordering is safe.
    let masses: Vec<f64> = [0.7, 1.1, 1.5, 2.0]
        .iter()
        .map(|&s| head_mass(1_000, s, 99, 40_000))
        .collect();
    for pair in masses.windows(2) {
        assert!(pair[1] > pair[0], "head mass not monotone: {masses:?}");
    }
    // And the heavy-head regime really is heavy.
    assert!(masses[3] > 0.8, "s=2.0 head mass {}", masses[3]);
}

// ---------------------------------------------------------- fleet soak ----

/// A soak with every hard path enabled: tight hoard budget (evictions),
/// daily decay, chaos-grade faults, storms, elastic autoscaling.
fn pressured(threads: usize) -> FleetConfig {
    FleetConfig {
        days: 3,
        images: 8,
        nodes: 10,
        min_online: 4,
        seed: 2014,
        threads,
        boots_per_day: 48,
        storm_vms: 6,
        budget: HoardBudget {
            disk_bytes: 48 * 1024,
            ddt_mem_bytes: 0,
        },
        faults: FaultConfig::chaos(),
        ..FleetConfig::default()
    }
}

/// Recorded before the fleet's fault tick and repair sweep were refactored:
/// a change must replay this exact trajectory and leave the same metrics.
const PINNED_READS: &str = "c4937f6d4ffe70cc79de44732cfdc87b04a13f263d726af78ae8f4276f77c24c";
const PINNED_METRICS: &str = "549822032f65ba716e25f41599cf8361e119aea9f2b74f2e3ab49a41dfa18268";

#[test]
fn fleet_soak_is_bit_identical_at_any_thread_count() {
    let (reference, ref_snap) = run_fleet_with_metrics(&pressured(1));
    assert_eq!(reference.days.len(), 3);
    assert!(reference.boots > 0, "{reference:?}");
    assert!(reference.popularity_decays > 0, "decay cadence never fired");
    assert!(
        reference.fault.total_injected() > 0,
        "chaos must inject faults"
    );
    assert!(
        reference.joins > 0 && reference.leaves > 0,
        "fleet never scaled"
    );
    assert_eq!(reference.read_checksum, PINNED_READS);
    // The snapshot hash skips counters that never fired, so it pins what
    // the run did, not the inventory of series. The series added since the
    // pin was recorded are left out of the hash and checked on their own.
    const ADDED: [&str; 7] = [
        "zpool_recv_verified_bytes_total{pool=\"ccvol\"}",
        "zpool_verify_hashed_bytes_total{pool=\"ccvol\"}",
        "squirrel_boot_sim_replays_total",
        // The one storm is all cold: one working set, hashed once.
        "squirrel_boot_storm_digested_bytes_total",
        "zpool_verify_hashed_bytes_total{pool=\"scvol\"}",
        // Zero here: this scenario's one storm finds every cache evicted.
        "zpool_read_decompressed_bytes_total{pool=\"ccvol\"}",
        "zpool_read_decompressed_bytes_total{pool=\"scvol\"}",
    ];
    for series in &ADDED[..4] {
        assert!(
            ref_snap.counter(series).is_some_and(|bytes| bytes > 0),
            "{series}"
        );
    }
    let mut fired = ref_snap.clone();
    fired
        .counters
        .retain(|(name, v)| *v > 0 && !ADDED.contains(&name.as_str()));
    assert_eq!(
        ContentHash::of(fired.to_json().as_bytes()).to_hex(),
        PINNED_METRICS
    );
    for threads in [2, 8] {
        let (r, snap) = run_fleet_with_metrics(&pressured(threads));
        assert_eq!(r, reference, "threads={threads}: report diverged");
        assert_eq!(snap, ref_snap, "threads={threads}: metrics diverged");
    }
}

#[test]
fn fleet_soak_diverges_across_seeds() {
    let (a, _) = run_fleet_with_metrics(&pressured(1));
    let (b, _) = run_fleet_with_metrics(&FleetConfig {
        seed: 7,
        ..pressured(1)
    });
    assert_ne!(a.read_checksum, b.read_checksum);
}
