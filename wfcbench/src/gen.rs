//! Seeded input generation. Every input the program receives is made
//! here from the workload seed, so one seed always means one input set.

use wfc_service::QueryKind;
use wfc_spec::prng::SplitMix64;

/// One request as the program receives it.
#[derive(Clone, Debug)]
pub struct Input {
    pub kind: QueryKind,
    pub text: String,
}

/// A random deterministic FSM type in `wfc-spec` text: `states` states,
/// three invocations, two responses, oblivious transitions. A random
/// spanning tree rooted at the first state is laid down first, so every
/// state is reachable (the scenario parser rejects unreachable ones);
/// the remaining transitions are uniform.
pub fn random_type(rng: &mut SplitMix64, name: &str, states: usize) -> String {
    const INVS: usize = 3;
    let mut delta: Vec<Option<(usize, usize)>> = vec![None; states * INVS];
    for s in 1..states {
        let free: Vec<usize> = (0..s * INVS)
            .filter(|&slot| delta[slot].is_none())
            .collect();
        let slot = free[rng.gen_range(0, free.len())];
        delta[slot] = Some((s, rng.gen_range(0, 2)));
    }
    let mut text = format!("type {name} ports 2\nstates");
    for s in 0..states {
        text.push_str(&format!(" q{s}"));
    }
    text.push_str("\ninvocations a b c\nresponses r0 r1\n");
    for (slot, entry) in delta.iter().enumerate() {
        let (next, resp) = entry.unwrap_or_else(|| (rng.gen_range(0, states), rng.gen_range(0, 2)));
        let inv = ["a", "b", "c"][slot % INVS];
        text.push_str(&format!(
            "delta q{} * {inv} -> q{next} r{resp}\n",
            slot / INVS
        ));
    }
    text
}

/// A seeded permutation of `0..n`.
pub fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0, i + 1));
    }
    order
}
