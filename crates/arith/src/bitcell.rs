//! Bit-level cells: the Boolean functions of eq. (3.2) and their wide-input
//! generalisations.
//!
//! Every processor of a bit-level array computes some variant of a full
//! adder. The paper's eq. (3.2) defines the 3-input cell:
//!
//! ```text
//! g(x1,x2,x3) = (x1∧x2) ∨ (x2∧x3) ∨ (x3∧x1)      (carry, majority)
//! f(x1,x2,x3) = x1 ⊕ x2 ⊕ x3                      (partial sum, parity)
//! ```
//!
//! Expansion II additionally needs points where "more than three bits have to
//! be summed; hence, we need to generate at least two carry bits and one
//! partial sum bit" — for up to five inputs, the sum fits in three output bits
//! `(s, c, c')` with weights 1, 2 and 4; `c'` is the paper's second carry
//! travelling along `d̄₇ = [0̄, 0, 2]ᵀ`.

/// A single bit. `bool` keeps the cell functions branch-free and lets the
/// compiler pack arrays densely.
pub type Bit = bool;

/// The paper's `f`: 3-input parity (partial-sum bit).
#[inline]
pub fn sum3(x1: Bit, x2: Bit, x3: Bit) -> Bit {
    x1 ^ x2 ^ x3
}

/// The paper's `g`: 3-input majority (carry bit).
#[inline]
pub fn carry3(x1: Bit, x2: Bit, x3: Bit) -> Bit {
    (x1 & x2) | (x2 & x3) | (x3 & x1)
}

/// Full adder over three bits: returns `(sum, carry)`, i.e. `(f, g)`.
#[inline]
pub fn full_add(x1: Bit, x2: Bit, x3: Bit) -> (Bit, Bit) {
    (sum3(x1, x2, x3), carry3(x1, x2, x3))
}

/// Half adder: returns `(sum, carry)`.
#[inline]
pub fn half_add(x1: Bit, x2: Bit) -> (Bit, Bit) {
    (x1 ^ x2, x1 & x2)
}

/// Wide addition of up to five input bits, as required on the `i₁ = p`
/// hyperplane of Expansion II: returns `(s, c, c')` with
/// `s + 2c + 4c' = Σ inputs`.
///
/// "If four of these input bits are one, carry c' will be one. If two and not
/// more than three are ones, then carry c will be one."
///
/// # Panics
/// Panics if more than five inputs are supplied (five is the paper's maximum;
/// a sixth input would need a third carry).
pub fn wide_add(inputs: &[Bit]) -> (Bit, Bit, Bit) {
    assert!(
        inputs.len() <= 5,
        "wide_add supports at most 5 inputs, got {}",
        inputs.len()
    );
    let total = inputs.iter().filter(|&&b| b).count();
    (total & 1 == 1, total & 2 == 2, total & 4 == 4)
}

/// Converts a nonnegative integer to its `width` low-order bits, LSB first —
/// the paper's indexing `a = a_p a_{p-1} … a_1` maps `a_k` to `bits[k-1]`.
///
/// # Panics
/// Panics if `x` does not fit in `width` bits (callers must pick operand
/// ranges that fit the modelled word length `p`).
pub fn to_bits(x: u128, width: usize) -> Vec<Bit> {
    assert!(
        width >= 128 - x.leading_zeros() as usize,
        "{x} does not fit in {width} bits"
    );
    (0..width).map(|k| (x >> k) & 1 == 1).collect()
}

/// Converts an LSB-first bit vector back to an integer.
///
/// # Panics
/// Panics if more than 128 bits are supplied.
pub fn from_bits(bits: &[Bit]) -> u128 {
    assert!(bits.len() <= 128, "from_bits supports at most 128 bits");
    bits.iter()
        .enumerate()
        .fold(0u128, |acc, (k, &b)| acc | ((b as u128) << k))
}

/// A machine word holding one [`Bit`] per *lane*: bit `i` of a `LaneWord`
/// belongs to problem instance `i`. All lane functions below are the
/// bitwise (SWAR) forms of the scalar cells above, so evaluating one
/// `LaneWord` expression simulates up to [`MAX_LANES`] independent
/// instances in a single pass.
pub type LaneWord = u64;

/// Number of independent instances a single [`LaneWord`] can carry.
pub const MAX_LANES: usize = LaneWord::BITS as usize;

/// Lane-parallel `f`: 3-input parity in every lane at once.
#[inline]
pub fn sum3_lanes(x1: LaneWord, x2: LaneWord, x3: LaneWord) -> LaneWord {
    x1 ^ x2 ^ x3
}

/// Lane-parallel `g`: 3-input majority in every lane at once.
#[inline]
pub fn carry3_lanes(x1: LaneWord, x2: LaneWord, x3: LaneWord) -> LaneWord {
    (x1 & x2) | (x2 & x3) | (x3 & x1)
}

/// Lane-parallel full adder: `(sum, carry)` per lane.
#[inline]
pub fn full_add_lanes(x1: LaneWord, x2: LaneWord, x3: LaneWord) -> (LaneWord, LaneWord) {
    (sum3_lanes(x1, x2, x3), carry3_lanes(x1, x2, x3))
}

/// Lane-parallel half adder: `(sum, carry)` per lane.
#[inline]
pub fn half_add_lanes(x1: LaneWord, x2: LaneWord) -> (LaneWord, LaneWord) {
    (x1 ^ x2, x1 & x2)
}

/// Lane-parallel wide addition of up to five input words: `(s, c, c')`
/// per lane with `s + 2c + 4c' = Σ inputs` in every lane.
///
/// Implemented as two chained full adders: `(s₁, c₁) = FA(x₁,x₂,x₃)` then
/// `(s, c₂) = FA(s₁,x₄,x₅)`. The two weight-2 carries combine without a
/// third addition because `c₁ + c₂ = (c₁⊕c₂) + 2(c₁∧c₂)`, giving
/// `c = c₁⊕c₂` and `c' = c₁∧c₂` exactly as in the scalar [`wide_add`].
///
/// # Panics
/// Panics if more than five input words are supplied.
pub fn wide_add_lanes(inputs: &[LaneWord]) -> (LaneWord, LaneWord, LaneWord) {
    assert!(
        inputs.len() <= 5,
        "wide_add_lanes supports at most 5 inputs, got {}",
        inputs.len()
    );
    let get = |i: usize| inputs.get(i).copied().unwrap_or(0);
    let (s1, c1) = full_add_lanes(get(0), get(1), get(2));
    let (s, c2) = full_add_lanes(s1, get(3), get(4));
    (s, c1 ^ c2, c1 & c2)
}

/// Reads lane `lane` of a word as a scalar [`Bit`].
///
/// # Panics
/// Panics if `lane >= MAX_LANES`.
#[inline]
pub fn lane_bit(word: LaneWord, lane: usize) -> Bit {
    assert!(lane < MAX_LANES, "lane {lane} out of range");
    (word >> lane) & 1 == 1
}

/// Packs per-lane scalar bits into a word: `bits[i]` becomes lane `i`,
/// all lanes `>= bits.len()` are zero.
///
/// # Panics
/// Panics if more than [`MAX_LANES`] bits are supplied.
pub fn pack_lanes(bits: &[Bit]) -> LaneWord {
    assert!(
        bits.len() <= MAX_LANES,
        "pack_lanes supports at most {MAX_LANES} lanes, got {}",
        bits.len()
    );
    bits.iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | ((b as LaneWord) << i))
}

/// Inverts the lanes of `word` selected by `mask` — the lane-parallel form
/// of a transient bit flip: lane `l` is flipped iff bit `l` of `mask` is
/// set, all other lanes pass through untouched.
#[inline]
pub fn flip_lanes(word: LaneWord, mask: LaneWord) -> LaneWord {
    word ^ mask
}

/// Forces the lanes of `word` selected by `mask` to `value` — the
/// lane-parallel form of a stuck-at fault. Unselected lanes pass through.
#[inline]
pub fn set_lanes(word: LaneWord, mask: LaneWord, value: Bit) -> LaneWord {
    if value {
        word | mask
    } else {
        word & !mask
    }
}

/// Bit-plane transpose: packs one LSB-first bit row per lane into plane
/// words, `planes[k]` holding bit `k` of every lane. This is how the
/// wordized cell semantics turn per-lane operand bit vectors (the scalar
/// cells' storage) into the [`LaneWord`] planes a word-wide walk reads.
///
/// # Panics
/// Panics on an empty batch, more than [`MAX_LANES`] rows, or rows of
/// unequal width.
pub fn pack_bit_planes(rows: &[Vec<Bit>]) -> Vec<LaneWord> {
    assert!(
        (1..=MAX_LANES).contains(&rows.len()),
        "pack_bit_planes takes 1..={MAX_LANES} lanes, got {}",
        rows.len()
    );
    let width = rows[0].len();
    assert!(
        rows.iter().all(|r| r.len() == width),
        "pack_bit_planes requires equal-width rows"
    );
    (0..width)
        .map(|k| {
            rows.iter()
                .enumerate()
                .fold(0, |acc, (lane, row)| acc | ((row[k] as LaneWord) << lane))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn full_adder_truth_table() {
        // (x1, x2, x3) -> s + 2c == x1 + x2 + x3 for all 8 combinations.
        for bits in 0..8u8 {
            let x1 = bits & 1 == 1;
            let x2 = bits & 2 == 2;
            let x3 = bits & 4 == 4;
            let (s, c) = full_add(x1, x2, x3);
            let expect = x1 as u8 + x2 as u8 + x3 as u8;
            assert_eq!(s as u8 + 2 * c as u8, expect, "inputs {x1} {x2} {x3}");
            // And f/g individually match eq. (3.2).
            assert_eq!(sum3(x1, x2, x3), s);
            assert_eq!(carry3(x1, x2, x3), c);
        }
    }

    #[test]
    fn half_adder_truth_table() {
        assert_eq!(half_add(false, false), (false, false));
        assert_eq!(half_add(true, false), (true, false));
        assert_eq!(half_add(false, true), (true, false));
        assert_eq!(half_add(true, true), (false, true));
    }

    #[test]
    fn wide_add_matches_paper_carry_rules() {
        // "If four of these input bits are one, carry c' will be one."
        let (s, c, cp) = wide_add(&[true, true, true, true]);
        assert_eq!((s, c, cp), (false, false, true));
        // "If two and not more than three are ones, then carry c will be one."
        let (s, c, cp) = wide_add(&[true, true, false, false]);
        assert_eq!((s, c, cp), (false, true, false));
        let (s, c, cp) = wide_add(&[true, true, true, false, false]);
        assert_eq!((s, c, cp), (true, true, false));
        // Five ones: 5 = 1 + 0·2 + 1·4.
        let (s, c, cp) = wide_add(&[true; 5]);
        assert_eq!((s, c, cp), (true, false, true));
    }

    #[test]
    fn wide_add_exhaustive_weights() {
        for n in 0..32u8 {
            let inputs: Vec<Bit> = (0..5).map(|k| n & (1 << k) != 0).collect();
            let (s, c, cp) = wide_add(&inputs);
            let total = inputs.iter().filter(|&&b| b).count();
            assert_eq!(s as usize + 2 * (c as usize) + 4 * (cp as usize), total);
        }
    }

    #[test]
    #[should_panic(expected = "at most 5 inputs")]
    fn wide_add_rejects_six_inputs() {
        let _ = wide_add(&[true; 6]);
    }

    #[test]
    fn bit_conversions_roundtrip() {
        assert_eq!(to_bits(0b1011, 4), vec![true, true, false, true]);
        assert_eq!(from_bits(&[true, true, false, true]), 0b1011);
        assert_eq!(from_bits(&[]), 0);
        assert_eq!(to_bits(0, 3), vec![false; 3]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn to_bits_checks_width() {
        let _ = to_bits(16, 4);
    }

    /// A deterministic pseudo-random word stream for the lane tests.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let hi = *state >> 33;
        hi ^ (*state << 31)
    }

    #[test]
    fn lane_cells_match_scalar_cells_in_every_lane() {
        let mut state = 0x1CC7_1993u64;
        for _ in 0..32 {
            let (a, b, c) = (lcg(&mut state), lcg(&mut state), lcg(&mut state));
            let (s, cy) = full_add_lanes(a, b, c);
            assert_eq!(s, sum3_lanes(a, b, c));
            assert_eq!(cy, carry3_lanes(a, b, c));
            let (hs, hc) = half_add_lanes(a, b);
            for lane in 0..MAX_LANES {
                let (x1, x2, x3) = (lane_bit(a, lane), lane_bit(b, lane), lane_bit(c, lane));
                assert_eq!(
                    (lane_bit(s, lane), lane_bit(cy, lane)),
                    full_add(x1, x2, x3)
                );
                assert_eq!((lane_bit(hs, lane), lane_bit(hc, lane)), half_add(x1, x2));
            }
        }
    }

    #[test]
    fn wide_add_lanes_matches_scalar_wide_add_for_all_arities() {
        let mut state = 0xD00D_1993u64;
        for arity in 0..=5usize {
            for _ in 0..16 {
                let words: Vec<LaneWord> = (0..arity).map(|_| lcg(&mut state)).collect();
                let (s, c, cp) = wide_add_lanes(&words);
                for lane in 0..MAX_LANES {
                    let bits: Vec<Bit> = words.iter().map(|&w| lane_bit(w, lane)).collect();
                    let expect = wide_add(&bits);
                    assert_eq!(
                        (lane_bit(s, lane), lane_bit(c, lane), lane_bit(cp, lane)),
                        expect,
                        "arity {arity} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 5 inputs")]
    fn wide_add_lanes_rejects_six_inputs() {
        let _ = wide_add_lanes(&[0; 6]);
    }

    #[test]
    fn pack_lanes_roundtrips_and_masks_high_lanes() {
        let bits = [true, false, true, true];
        let word = pack_lanes(&bits);
        assert_eq!(word, 0b1101);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(lane_bit(word, i), b);
        }
        // Lanes beyond the packed width are zero.
        for lane in bits.len()..MAX_LANES {
            assert!(!lane_bit(word, lane));
        }
        assert_eq!(pack_lanes(&[]), 0);
    }

    #[test]
    fn flip_and_set_lanes_touch_only_masked_lanes() {
        let mut state = 0xFAB_1993u64;
        for _ in 0..16 {
            let (w, mask) = (lcg(&mut state), lcg(&mut state));
            let flipped = flip_lanes(w, mask);
            let forced_one = set_lanes(w, mask, true);
            let forced_zero = set_lanes(w, mask, false);
            for lane in 0..MAX_LANES {
                let hit = lane_bit(mask, lane);
                let orig = lane_bit(w, lane);
                assert_eq!(lane_bit(flipped, lane), orig ^ hit);
                assert_eq!(lane_bit(forced_one, lane), orig | hit);
                assert_eq!(lane_bit(forced_zero, lane), orig & !hit);
            }
        }
    }

    #[test]
    fn pack_bit_planes_transposes_per_lane_rows() {
        let rows = vec![
            to_bits(0b101, 4), // lane 0
            to_bits(0b011, 4), // lane 1
            to_bits(0b110, 4), // lane 2
        ];
        let planes = pack_bit_planes(&rows);
        assert_eq!(planes.len(), 4);
        for (lane, row) in rows.iter().enumerate() {
            for (k, &bit) in row.iter().enumerate() {
                assert_eq!(lane_bit(planes[k], lane), bit, "lane {lane} bit {k}");
            }
        }
        // Unoccupied lanes stay zero in every plane.
        for &plane in &planes {
            assert_eq!(plane >> rows.len(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "equal-width rows")]
    fn pack_bit_planes_rejects_ragged_rows() {
        let _ = pack_bit_planes(&[to_bits(1, 2), to_bits(1, 3)]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(x in 0u128..1u128 << 40, extra in 0usize..8) {
            let width = (128 - x.leading_zeros() as usize).max(1) + extra;
            prop_assert_eq!(from_bits(&to_bits(x, width)), x);
        }

        #[test]
        fn prop_wide_add_lanes_weighted_sum(a in any::<u64>(), b in any::<u64>(),
                                            c in any::<u64>(), d in any::<u64>(),
                                            e in any::<u64>()) {
            let (s, cy, cp) = wide_add_lanes(&[a, b, c, d, e]);
            for lane in 0..MAX_LANES {
                let total = [a, b, c, d, e]
                    .iter()
                    .filter(|&&w| lane_bit(w, lane))
                    .count();
                let got = lane_bit(s, lane) as usize
                    + 2 * lane_bit(cy, lane) as usize
                    + 4 * lane_bit(cp, lane) as usize;
                prop_assert_eq!(got, total);
            }
        }
    }
}
