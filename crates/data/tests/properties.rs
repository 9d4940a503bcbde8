//! Property-based tests for the dataset generators and CSV I/O.

use proptest::prelude::*;
use sider_data::csv;
use sider_data::synthetic::{runtime_dataset, three_d_four_clusters, xhat5};
use sider_linalg::Matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generators_always_produce_valid_datasets(seed in 0u64..10_000) {
        let a = three_d_four_clusters(seed);
        prop_assert!(a.validate().is_ok());
        prop_assert_eq!(a.n(), 150);

        let b = xhat5(200, seed);
        prop_assert!(b.validate().is_ok());
        prop_assert_eq!(b.labels.len(), 2);

        let c = runtime_dataset(64, 4, 3, seed);
        prop_assert!(c.validate().is_ok());
    }

    #[test]
    fn runtime_dataset_balanced_for_any_params(
        seed in 0u64..1000,
        k in 1usize..6,
        d in 1usize..6,
    ) {
        let n = 60;
        let ds = runtime_dataset(n, d, k, seed);
        prop_assert_eq!(ds.n(), n);
        prop_assert_eq!(ds.d(), d);
        let sizes = ds.primary_labels().unwrap().class_sizes();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        prop_assert!(max - min <= 1, "unbalanced: {:?}", sizes);
    }

    #[test]
    fn csv_roundtrip_any_matrix(
        rows in 1usize..8,
        cols in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let mut rng = sider_stats::Rng::seed_from_u64(seed);
        let m = Matrix::from_fn(rows, cols, |_, _| {
            // Mix of magnitudes incl. negatives and tiny values.
            (rng.uniform() - 0.5) * 10f64.powi((rng.below(7) as i32) - 3)
        });
        // Rust's shortest round-trip text for each value, as a CSV file.
        let header: Vec<String> = (0..cols).map(|j| format!("c{j}")).collect();
        let mut text = header.join(",") + "\n";
        for i in 0..rows {
            let cells: Vec<String> = m.row(i).iter().map(|v| format!("{v}")).collect();
            text += &(cells.join(",") + "\n");
        }
        let (h2, m2) = csv::read_matrix(text.as_bytes()).unwrap();
        prop_assert_eq!(h2, header);
        prop_assert_eq!(m2.max_abs_diff(&m), 0.0);
    }
}
