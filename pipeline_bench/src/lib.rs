//! The benchmark's sections and the tools they share. The `main` binary
//! drives a run; `spread` summarizes the result lines of several runs.

#![forbid(unsafe_code)]

pub mod checks;
pub mod cpu;
pub mod ctx;
pub mod fed;
pub mod fig5;
pub mod names;
pub mod openloop;
pub mod pipeline;
pub mod serving;
pub mod stats;
pub mod trace;

#[cfg(test)]
mod tests {
    /// Every generated input of every section, rendered exactly (`{:?}`
    /// prints each `f64` so that it parses back to the same bits).
    fn render(seed: u64) -> String {
        let p = crate::pipeline::inputs(seed, (40, 25, 20));
        let cells: Vec<String> = crate::fig5::cells(seed, 400)
            .expect("small cells generate")
            .iter()
            .map(|c| format!("{}{:?}{:?}", c.name, c.table, c.y))
            .collect();
        let s = crate::serving::inputs(seed).expect("serving datasets generate");
        let f = crate::fed::inputs(seed, (3, 50), 100).expect("small silos integrate");
        format!(
            "{:?}{:?}{:?}{cells:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
            p.er,
            p.pulmonary,
            p.probes,
            s.tables,
            s.replacement,
            s.features,
            s.labels,
            s.mix,
            f.parties,
            f.table,
            f.y
        )
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        assert_eq!(render(11), render(11));
        assert_ne!(render(11), render(12));
    }
}
