//! Seeded draws for the property tests: a splitmix64 stream per seed, and
//! a runner that names the seed of a failing draw.

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A uniform draw from `lo..=hi`.
pub fn pick(state: &mut u64, lo: usize, hi: usize) -> usize {
    lo + (splitmix64(state) % (hi - lo + 1) as u64) as usize
}

/// Runs `check` once per seed in `base..base + draws`. Each check draws its
/// inputs from a splitmix64 stream started at its seed and names them in
/// its assertions; any panic inside a draw also reports the seed.
pub fn for_each_seed(base: u64, draws: u64, mut check: impl FnMut(u64)) {
    for seed in base..base + draws {
        if let Err(cause) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(seed))) {
            eprintln!("failing draw: seed {seed:#x}");
            std::panic::resume_unwind(cause);
        }
    }
}
