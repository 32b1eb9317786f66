//! Systematic k+m Reed–Solomon erasure coding over GF(256), std-only.
//!
//! The encoding matrix is `[I; C]`: the k data shards pass through verbatim
//! (systematic), and the m parity shards are rows of a Cauchy matrix
//! `C[i][j] = 1 / (x_i + y_j)` with `x_i = i` and `y_j = m + j` (addition
//! is XOR in GF(256), and the two index sets are disjoint so no entry
//! divides by zero). Every square submatrix of a Cauchy matrix is
//! invertible, which makes `[I; C]` MDS: *any* k of the k+m shards
//! reconstruct the data exactly, so the code tolerates the loss of any m
//! shards — one whole rack of shards, in the topology this crate places
//! them over.
//!
//! Decoding gathers any k surviving shards, inverts the corresponding k×k
//! submatrix by Gauss–Jordan elimination over GF(256), and multiplies. All
//! arithmetic is table-driven (log/exp over the 0x11d primitive
//! polynomial); nothing here panics on bad erasure patterns — more than m
//! losses surface as a typed [`RsError`].

/// Errors from the pure coder. `>m` losses are reported, never silently
/// mis-decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RsError {
    /// `k` and `m` must be nonzero and `k + m <= 255`.
    BadGeometry { k: usize, m: usize },
    /// Shards passed to encode/decode have inconsistent lengths.
    ShardSizeMismatch,
    /// Fewer than `k` shards survive: the data is unrecoverable.
    NotEnoughShards { available: usize, needed: usize },
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::BadGeometry { k, m } => {
                write!(
                    f,
                    "bad erasure geometry k={k} m={m} (need 1<=k, 1<=m, k+m<=255)"
                )
            }
            RsError::ShardSizeMismatch => write!(f, "shard lengths differ"),
            RsError::NotEnoughShards { available, needed } => {
                write!(f, "only {available} shards survive, {needed} needed")
            }
        }
    }
}

impl std::error::Error for RsError {}

/// GF(256) log/exp tables over the 0x11d polynomial, built once.
struct GfTables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static GfTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<GfTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= 0x11d;
            }
        }
        // Duplicate the cycle so products of logs index without a mod.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        GfTables { exp, log }
    })
}

#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

#[inline]
fn gf_inv(a: u8) -> u8 {
    debug_assert_ne!(a, 0, "zero has no inverse");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

fn check_geometry(k: usize, m: usize) -> Result<(), RsError> {
    if k == 0 || m == 0 || k + m > 255 {
        return Err(RsError::BadGeometry { k, m });
    }
    Ok(())
}

/// Row `r` of the (k+m)×k encoding matrix `[I; C]`.
fn matrix_row(k: usize, m: usize, r: usize) -> Vec<u8> {
    let mut row = vec![0u8; k];
    if r < k {
        row[r] = 1;
    } else {
        let i = (r - k) as u8;
        for (j, cell) in row.iter_mut().enumerate() {
            // x_i = i in [0, m); y_j = m + j in [m, m+k): disjoint, so the
            // XOR (GF addition) is never zero.
            *cell = gf_inv(i ^ (m + j) as u8);
        }
    }
    row
}

/// Encode `k` equal-length data shards into `m` parity shards.
pub fn rs_encode(k: usize, m: usize, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RsError> {
    check_geometry(k, m)?;
    if data.len() != k || data.windows(2).any(|w| w[0].len() != w[1].len()) {
        return Err(RsError::ShardSizeMismatch);
    }
    let len = data[0].len();
    let mut parity = vec![vec![0u8; len]; m];
    for (i, p) in parity.iter_mut().enumerate() {
        let row = matrix_row(k, m, k + i);
        for (j, d) in data.iter().enumerate() {
            let c = row[j];
            for (pb, &db) in p.iter_mut().zip(d) {
                *pb ^= gf_mul(c, db);
            }
        }
    }
    Ok(parity)
}

/// Invert a k×k matrix over GF(256) by Gauss–Jordan elimination. The
/// matrices handed in are submatrices of `[I; C]` with C Cauchy, which are
/// always invertible; a singular input still returns an error rather than
/// panicking (defense against a caller passing duplicate shard indices).
fn invert(mut a: Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>> {
    let n = a.len();
    let mut inv: Vec<Vec<u8>> = (0..n)
        .map(|i| (0..n).map(|j| u8::from(i == j)).collect())
        .collect();
    for col in 0..n {
        let pivot = (col..n).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let scale = gf_inv(a[col][col]);
        for j in 0..n {
            a[col][j] = gf_mul(a[col][j], scale);
            inv[col][j] = gf_mul(inv[col][j], scale);
        }
        for r in 0..n {
            if r == col || a[r][col] == 0 {
                continue;
            }
            let f = a[r][col];
            for j in 0..n {
                let (ac, ic) = (a[col][j], inv[col][j]);
                a[r][j] ^= gf_mul(f, ac);
                inv[r][j] ^= gf_mul(f, ic);
            }
        }
    }
    Some(inv)
}

/// Reconstruct every missing shard in place. `shards` holds the k+m shards
/// in index order, `None` marking erasures; on success every slot is
/// `Some` and data slots hold the original bytes exactly.
pub fn rs_reconstruct(k: usize, m: usize, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
    check_geometry(k, m)?;
    if shards.len() != k + m {
        return Err(RsError::ShardSizeMismatch);
    }
    let available: Vec<usize> = (0..k + m).filter(|&i| shards[i].is_some()).collect();
    if available.len() < k {
        return Err(RsError::NotEnoughShards {
            available: available.len(),
            needed: k,
        });
    }
    let len = shards[available[0]].as_ref().expect("available").len();
    if available
        .iter()
        .any(|&i| shards[i].as_ref().expect("available").len() != len)
    {
        return Err(RsError::ShardSizeMismatch);
    }
    if (0..k).all(|i| shards[i].is_some()) {
        // Fast path: all data shards survive; recompute lost parity only.
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| shards[i].as_ref().expect("data").clone())
            .collect();
        let parity = rs_encode(k, m, &data)?;
        for (i, p) in parity.into_iter().enumerate() {
            if shards[k + i].is_none() {
                shards[k + i] = Some(p);
            }
        }
        return Ok(());
    }
    // General path: decode the data from the first k surviving shards.
    let rows: Vec<usize> = available.iter().copied().take(k).collect();
    let sub: Vec<Vec<u8>> = rows.iter().map(|&r| matrix_row(k, m, r)).collect();
    let inv = invert(sub).ok_or(RsError::NotEnoughShards {
        available: rows.len(),
        needed: k,
    })?;
    let mut data = vec![vec![0u8; len]; k];
    for (out_row, d) in inv.iter().zip(data.iter_mut()) {
        for (&c, &r) in out_row.iter().zip(&rows) {
            if c == 0 {
                continue;
            }
            let s = shards[r].as_ref().expect("available");
            for (db, &sb) in d.iter_mut().zip(s) {
                *db ^= gf_mul(c, sb);
            }
        }
    }
    let parity = rs_encode(k, m, &data)?;
    for (i, d) in data.into_iter().enumerate() {
        if shards[i].is_none() {
            shards[i] = Some(d);
        }
    }
    for (i, p) in parity.into_iter().enumerate() {
        if shards[k + i].is_none() {
            shards[k + i] = Some(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed;
        (0..k)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (state >> 33) as u8
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn gf_mul_matches_known_values() {
        assert_eq!(gf_mul(0, 7), 0);
        assert_eq!(gf_mul(1, 7), 7);
        assert_eq!(gf_mul(2, 0x80), 0x1d, "0x11d reduction");
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn any_k_subset_decodes_exactly() {
        let (k, m) = (4, 2);
        let data = mk_data(k, 97, 11);
        let parity = rs_encode(k, m, &data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().chain(&parity).cloned().collect();
        // Every way of losing exactly m shards must recover all of them.
        for a in 0..k + m {
            for b in a + 1..k + m {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                rs_reconstruct(k, m, &mut shards).unwrap();
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(
                        s.as_deref(),
                        Some(full[i].as_slice()),
                        "lost ({a},{b}) slot {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_than_m_losses_is_a_typed_error() {
        let (k, m) = (3, 2);
        let data = mk_data(k, 32, 5);
        let parity = rs_encode(k, m, &data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().chain(&parity).cloned().map(Some).collect();
        shards[0] = None;
        shards[2] = None;
        shards[4] = None;
        assert_eq!(
            rs_reconstruct(k, m, &mut shards),
            Err(RsError::NotEnoughShards {
                available: 2,
                needed: 3
            })
        );
    }

    #[test]
    fn bad_geometry_and_mismatched_shards_are_rejected() {
        assert_eq!(
            rs_encode(0, 2, &[]),
            Err(RsError::BadGeometry { k: 0, m: 2 })
        );
        assert_eq!(
            rs_encode(200, 56, &vec![vec![0u8; 4]; 200]),
            Err(RsError::BadGeometry { k: 200, m: 56 })
        );
        assert_eq!(
            rs_encode(2, 1, &[vec![0u8; 4], vec![0u8; 5]]),
            Err(RsError::ShardSizeMismatch)
        );
        let mut uneven = vec![Some(vec![0u8; 4]), Some(vec![0u8; 5]), None];
        assert_eq!(
            rs_reconstruct(2, 1, &mut uneven),
            Err(RsError::ShardSizeMismatch)
        );
        let e: Box<dyn std::error::Error> = Box::new(RsError::NotEnoughShards {
            available: 1,
            needed: 4,
        });
        assert_eq!(e.to_string(), "only 1 shards survive, 4 needed");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For random geometry, random data, and a random loss set: losing
        /// at most m shards always decodes back the exact original bytes,
        /// and losing more than m reports a typed error — the coder never
        /// panics and never returns wrong bytes.
        #[test]
        fn random_losses_decode_exactly_or_error_typed(
            k in 1usize..8,
            m in 1usize..5,
            len in 1usize..200,
            seed in any::<u64>(),
            loss_picks in proptest::collection::vec(any::<u64>(), 0..12),
        ) {
            let data: Vec<Vec<u8>> = {
                let mut state = seed | 1;
                (0..k)
                    .map(|_| {
                        (0..len)
                            .map(|_| {
                                state = state
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1442695040888963407);
                                (state >> 33) as u8
                            })
                            .collect()
                    })
                    .collect()
            };
            let parity = rs_encode(k, m, &data).unwrap();
            let full: Vec<Vec<u8>> = data.iter().chain(&parity).cloned().collect();
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            let mut lost = std::collections::BTreeSet::new();
            for pick in loss_picks {
                lost.insert((pick % (k + m) as u64) as usize);
            }
            for &i in &lost {
                shards[i] = None;
            }
            let result = rs_reconstruct(k, m, &mut shards);
            if lost.len() <= m {
                prop_assert!(result.is_ok(), "{result:?}");
                for (i, s) in shards.iter().enumerate() {
                    prop_assert_eq!(s.as_deref(), Some(full[i].as_slice()), "slot {}", i);
                }
            } else {
                prop_assert_eq!(
                    result,
                    Err(RsError::NotEnoughShards {
                        available: k + m - lost.len(),
                        needed: k,
                    })
                );
                // Surviving shards are untouched by the failed decode.
                for i in (0..k + m).filter(|i| !lost.contains(i)) {
                    prop_assert_eq!(shards[i].as_deref(), Some(full[i].as_slice()));
                }
            }
        }
    }
}
