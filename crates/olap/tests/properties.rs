//! Property tests for cube algebra invariants.

use hierod_olap::{cell_outlierness, Cell, Cube, CubeSchema, Dimension};
use proptest::prelude::*;

fn facts(max: usize) -> impl Strategy<Value = Vec<([usize; 3], f64)>> {
    prop::collection::vec(
        ((0_usize..4, 0_usize..5, 0_usize..3), -100.0_f64..100.0)
            .prop_map(|((a, b, c), v)| ([a, b, c], v)),
        1..max,
    )
}

fn cube_of(data: &[([usize; 3], f64)]) -> Cube {
    let schema = CubeSchema::new(vec![
        Dimension::indexed("a", 4).unwrap(),
        Dimension::indexed("b", 5).unwrap(),
        Dimension::indexed("c", 3).unwrap(),
    ])
    .unwrap();
    let mut cube = Cube::new(schema);
    for (coords, v) in data {
        cube.insert(coords, *v).unwrap();
    }
    cube
}

/// All of a cube's facts merged into one cell.
fn grand_total(cube: &Cube) -> Cell {
    let mut total = Cell::default();
    for (_, cell) in cube.iter() {
        total.merge(cell);
    }
    total
}

proptest! {
    #[test]
    fn roll_up_preserves_totals(data in facts(64)) {
        let cube = cube_of(&data);
        let grand = grand_total(&cube);
        for dim in ["a", "b", "c"] {
            let rolled = cube.roll_up(dim).unwrap();
            let rolled_grand = grand_total(&rolled);
            prop_assert_eq!(grand.count, rolled_grand.count);
            prop_assert!((grand.sum - rolled_grand.sum).abs() < 1e-9);
            prop_assert!((grand.sum_sq - rolled_grand.sum_sq).abs() < 1e-6);
            // Roll-up can only merge cells, never create more.
            prop_assert!(rolled.iter().count() <= cube.iter().count());
        }
    }

    #[test]
    fn slices_partition_the_cube(data in facts(64)) {
        let cube = cube_of(&data);
        // Summing the grand totals of every slice along `b` reproduces the
        // cube's grand total.
        let mut count = 0_u64;
        let mut sum = 0.0_f64;
        for member in 0..5 {
            let slice = cube.slice("b", member).unwrap();
            let t = grand_total(&slice);
            count += t.count;
            sum += t.sum;
        }
        let grand = grand_total(&cube);
        prop_assert_eq!(count, grand.count);
        prop_assert!((sum - grand.sum).abs() < 1e-9);
    }

    #[test]
    fn roll_up_order_is_irrelevant(data in facts(48)) {
        let cube = cube_of(&data);
        let ab = cube.roll_up("a").unwrap().roll_up("b").unwrap();
        let ba = cube.roll_up("b").unwrap().roll_up("a").unwrap();
        let cells_ab: Vec<_> = ab.iter().map(|(c, cell)| (c.to_vec(), cell.count, cell.sum)).collect();
        let cells_ba: Vec<_> = ba.iter().map(|(c, cell)| (c.to_vec(), cell.count, cell.sum)).collect();
        prop_assert_eq!(cells_ab.len(), cells_ba.len());
        for (x, y) in cells_ab.iter().zip(&cells_ba) {
            prop_assert_eq!(&x.0, &y.0);
            prop_assert_eq!(x.1, y.1);
            prop_assert!((x.2 - y.2).abs() < 1e-9);
        }
    }

    #[test]
    fn cell_scores_are_finite_and_nonnegative(data in facts(48), min_peers in 1_usize..4) {
        let cube = cube_of(&data);
        for s in cell_outlierness(&cube, min_peers) {
            prop_assert!(s.score.is_finite());
            prop_assert!(s.score >= 0.0);
            prop_assert!(s.worst_dimension < 3);
        }
    }
}
