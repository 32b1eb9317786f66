//! OS-distribution census from the paper's Table 2.
//!
//! The Windows Azure community catalog (November 2013, 607 images) and the
//! Amazon EC2 catalog (October 2013, all regions) broken down by OS family.
//! The Azure census drives corpus generation; the EC2 census is reported for
//! comparison, exactly as the paper's Table 2 does.

/// Operating-system family of a VM image.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OsFamily {
    Ubuntu,
    RedHatCentos,
    Suse,
    Debian,
    Windows,
    UnidentifiedLinux,
}

impl OsFamily {
    /// All families, in Table 2's row order.
    pub const ALL: [OsFamily; 6] = [
        OsFamily::Ubuntu,
        OsFamily::RedHatCentos,
        OsFamily::Suse,
        OsFamily::Debian,
        OsFamily::Windows,
        OsFamily::UnidentifiedLinux,
    ];

    /// Row label, matching the paper's Table 2.
    pub fn label(&self) -> &'static str {
        match self {
            OsFamily::Ubuntu => "Ubuntu",
            OsFamily::RedHatCentos => "RedHat/CentOS",
            OsFamily::Suse => "OpenSuse/Suse Ent.",
            OsFamily::Debian => "Debian",
            OsFamily::Windows => "Windows",
            OsFamily::UnidentifiedLinux => "Unidentified Linux",
        }
    }

    /// Number of distinct releases modelled per family. Boot working sets
    /// are near-identical within a release and partially inherited between
    /// consecutive releases.
    pub fn release_count(&self) -> u32 {
        match self {
            OsFamily::Ubuntu => 8,
            OsFamily::RedHatCentos => 6,
            OsFamily::Suse => 4,
            OsFamily::Debian => 4,
            OsFamily::Windows => 4,
            OsFamily::UnidentifiedLinux => 3,
        }
    }
}

/// One census row: a family and its image count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CensusEntry {
    pub family: OsFamily,
    pub count: u32,
}

/// Windows Azure community images, November 2013 (total 607).
pub fn azure_census() -> Vec<CensusEntry> {
    vec![
        CensusEntry {
            family: OsFamily::Ubuntu,
            count: 579,
        },
        CensusEntry {
            family: OsFamily::RedHatCentos,
            count: 17,
        },
        CensusEntry {
            family: OsFamily::Suse,
            count: 5,
        },
        CensusEntry {
            family: OsFamily::Debian,
            count: 3,
        },
        CensusEntry {
            family: OsFamily::Windows,
            count: 0,
        },
        CensusEntry {
            family: OsFamily::UnidentifiedLinux,
            count: 3,
        },
    ]
}

/// Amazon EC2, all regions, October 2013. The paper's Table 2 prints a
/// total of 9871, but its rows sum to 9790; we reproduce the rows.
pub fn ec2_census() -> Vec<CensusEntry> {
    vec![
        CensusEntry {
            family: OsFamily::Ubuntu,
            count: 5720,
        },
        CensusEntry {
            family: OsFamily::RedHatCentos,
            count: 847,
        },
        CensusEntry {
            family: OsFamily::Suse,
            count: 8,
        },
        CensusEntry {
            family: OsFamily::Debian,
            count: 30,
        },
        CensusEntry {
            family: OsFamily::Windows,
            count: 531,
        },
        CensusEntry {
            family: OsFamily::UnidentifiedLinux,
            count: 2654,
        },
    ]
}

/// Total image count of a census.
pub fn census_total(census: &[CensusEntry]) -> u32 {
    census.iter().map(|e| e.count).sum()
}

/// Shrink a census to `n` images, preserving proportions but keeping at
/// least one image of every nonzero family (so small test corpora still
/// exercise cross-family behaviour); the largest family absorbs the
/// rounding so the total is exactly `n`.
///
/// The exception: when `n` is below the number of nonzero families, the
/// floors can outweigh the largest scaled family (the last on a tie), which
/// is then clamped at zero, so the census drops that family and may hold
/// more than `n` images. The Azure census (five nonzero families) holds 4
/// images at every `n` from 1 to 4: no Unidentified Linux at 1 and 2, and no
/// Ubuntu, 579 of its 607, at 3 and 4.
pub fn scaled_census(census: &[CensusEntry], n: u32) -> Vec<CensusEntry> {
    let total = census_total(census).max(1);
    let mut out: Vec<CensusEntry> = census
        .iter()
        .map(|e| CensusEntry {
            family: e.family,
            count: if e.count == 0 {
                0
            } else {
                ((e.count as u64 * n as u64) / total as u64).max(1) as u32
            },
        })
        .collect();
    // Adjust the largest family so the total hits exactly n.
    let sum: i64 = out.iter().map(|e| e.count as i64).sum();
    if let Some(biggest) = out.iter_mut().max_by_key(|e| e.count) {
        biggest.count = (biggest.count as i64 + n as i64 - sum).max(0) as u32;
    }
    debug_assert!(
        census_total(&out) == n || n < census.iter().filter(|e| e.count > 0).count() as u32,
        "{n} images scaled to {}",
        census_total(&out)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn azure_totals_607() {
        assert_eq!(census_total(&azure_census()), 607);
    }

    #[test]
    fn ec2_totals_match_table_rows() {
        // The paper's printed total (9871) disagrees with its own rows,
        // which sum to 9790; we assert the row sum.
        assert_eq!(census_total(&ec2_census()), 9790);
    }

    #[test]
    fn azure_has_no_windows() {
        let c = azure_census();
        let w = c
            .iter()
            .find(|e| e.family == OsFamily::Windows)
            .expect("row");
        assert_eq!(w.count, 0);
    }

    #[test]
    fn scaled_census_preserves_total_and_minorities() {
        let s = scaled_census(&azure_census(), 60);
        assert_eq!(census_total(&s), 60);
        for e in &s {
            if e.family != OsFamily::Windows {
                assert!(e.count >= 1, "{:?}", e.family);
            }
        }
        // Ubuntu still dominates.
        let ubuntu = s
            .iter()
            .find(|e| e.family == OsFamily::Ubuntu)
            .expect("row")
            .count;
        assert!(ubuntu > 40, "ubuntu {ubuntu}");
    }

    #[test]
    fn scaled_census_totals_n_whenever_every_family_fits() {
        for census in [azure_census(), ec2_census()] {
            let families = census.iter().filter(|e| e.count > 0).count() as u32;
            for n in families..=2_000 {
                assert_eq!(census_total(&scaled_census(&census, n)), n, "{n}");
            }
        }
    }

    #[test]
    fn scaled_census_identity_at_full_size() {
        let s = scaled_census(&azure_census(), 607);
        assert_eq!(census_total(&s), 607);
    }

    #[test]
    fn labels_are_table2_rows() {
        assert_eq!(OsFamily::Suse.label(), "OpenSuse/Suse Ent.");
        assert_eq!(OsFamily::RedHatCentos.label(), "RedHat/CentOS");
    }

    #[test]
    fn every_family_has_releases() {
        for f in OsFamily::ALL {
            assert!(f.release_count() >= 3, "{f:?}");
        }
    }
}
