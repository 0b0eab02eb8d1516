//! Sparse cube storage and the classic OLAP operators.

use std::collections::BTreeMap;

use crate::schema::{CubeSchema, OlapError};

/// Per-cell accumulator: count, sum, and sum of squares of the measure.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cell {
    /// Number of facts aggregated into the cell.
    pub count: u64,
    /// Sum of the measure.
    pub sum: f64,
    /// Sum of squared measure values.
    pub sum_sq: f64,
}

impl Cell {
    /// Folds one fact into the cell.
    pub(crate) fn add(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.sum_sq += value * value;
    }

    /// Merges another cell (used by roll-up).
    pub fn merge(&mut self, other: &Cell) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Mean of the measure (0 for empty cells).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A sparse OLAP cube: facts are `(coordinates, measure)` pairs aggregated
/// into [`Cell`]s. Cells are stored in a `BTreeMap` so iteration order is
/// deterministic (important for reproducible experiment output).
#[derive(Debug, Clone)]
pub struct Cube {
    schema: CubeSchema,
    cells: BTreeMap<Vec<usize>, Cell>,
}

impl Cube {
    /// Creates an empty cube over a schema.
    pub fn new(schema: CubeSchema) -> Self {
        Self {
            schema,
            cells: BTreeMap::new(),
        }
    }

    /// The cube's schema.
    pub(crate) fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// Inserts one fact.
    ///
    /// # Errors
    /// Returns an error if the coordinates don't fit the schema.
    pub fn insert(&mut self, coords: &[usize], value: f64) -> Result<(), OlapError> {
        self.schema.validate(coords)?;
        self.cells.entry(coords.to_vec()).or_default().add(value);
        Ok(())
    }

    /// Reads a cell, if populated.
    pub fn cell(&self, coords: &[usize]) -> Option<&Cell> {
        self.cells.get(coords)
    }

    /// Iterates populated cells in deterministic coordinate order.
    pub fn iter(&self) -> impl Iterator<Item = (&[usize], &Cell)> {
        self.cells.iter().map(|(k, v)| (k.as_slice(), v))
    }

    /// Roll-up: drops the named dimension, merging cells that collide.
    ///
    /// # Errors
    /// Returns an error for an unknown dimension or when dropping the last
    /// dimension.
    pub fn roll_up(&self, dim_name: &str) -> Result<Cube, OlapError> {
        let di = self.schema.dim_index(dim_name)?;
        let remaining: Vec<_> = self
            .schema
            .dimensions()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != di)
            .map(|(_, d)| d.clone())
            .collect();
        let schema = CubeSchema::new(remaining)?;
        let mut cells: BTreeMap<Vec<usize>, Cell> = BTreeMap::new();
        for (coords, cell) in &self.cells {
            let mut reduced = coords.clone();
            reduced.remove(di);
            cells.entry(reduced).or_default().merge(cell);
        }
        Ok(Cube { schema, cells })
    }

    /// Slice: fixes `dim_name == member`, producing a cube without that
    /// dimension containing only the matching cells.
    ///
    /// # Errors
    /// Returns an error for an unknown dimension, out-of-range member, or
    /// when slicing away the last dimension.
    pub fn slice(&self, dim_name: &str, member: usize) -> Result<Cube, OlapError> {
        let di = self.schema.dim_index(dim_name)?;
        let Some(dim) = self.schema.dimensions().get(di) else {
            return Err(OlapError::UnknownDimension {
                name: dim_name.to_string(),
            });
        };
        if member >= dim.cardinality() {
            return Err(OlapError::MemberOutOfRange {
                dimension: dim.name().to_string(),
                member,
                cardinality: dim.cardinality(),
            });
        }
        let remaining: Vec<_> = self
            .schema
            .dimensions()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != di)
            .map(|(_, d)| d.clone())
            .collect();
        let schema = CubeSchema::new(remaining)?;
        let mut cells: BTreeMap<Vec<usize>, Cell> = BTreeMap::new();
        for (coords, cell) in &self.cells {
            if coords.get(di) != Some(&member) {
                continue;
            }
            let mut reduced = coords.clone();
            reduced.remove(di);
            cells.insert(reduced, *cell);
        }
        Ok(Cube { schema, cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Dimension;

    fn cube_2x3() -> Cube {
        let schema = CubeSchema::new(vec![
            Dimension::indexed("machine", 2).unwrap(),
            Dimension::indexed("job", 3).unwrap(),
        ])
        .unwrap();
        let mut cube = Cube::new(schema);
        // machine 0: jobs with measures 1, 2, 3; machine 1: 10, 20, 30.
        for (j, v) in [1.0, 2.0, 3.0].iter().enumerate() {
            cube.insert(&[0, j], *v).unwrap();
        }
        for (j, v) in [10.0, 20.0, 30.0].iter().enumerate() {
            cube.insert(&[1, j], *v).unwrap();
        }
        cube
    }

    #[test]
    fn cell_accumulation() {
        let mut c = Cell::default();
        c.add(2.0);
        c.add(4.0);
        assert_eq!(c.count, 2);
        assert_eq!(c.mean(), 3.0);
        assert_eq!(c.sum_sq, 20.0);
        assert_eq!(Cell::default().mean(), 0.0);
    }

    #[test]
    fn insert_and_read() {
        let cube = cube_2x3();
        assert_eq!(cube.iter().count(), 6);
        assert_eq!(cube.cell(&[1, 2]).unwrap().sum, 30.0);
        assert!(cube.cell(&[0, 9]).is_none());
    }

    #[test]
    fn insert_validates_coords() {
        let mut cube = cube_2x3();
        assert!(cube.insert(&[5, 0], 1.0).is_err());
        assert!(cube.insert(&[0], 1.0).is_err());
    }

    #[test]
    fn roll_up_merges() {
        let cube = cube_2x3();
        let by_machine = cube.roll_up("job").unwrap();
        assert_eq!(by_machine.schema().arity(), 1);
        assert_eq!(by_machine.cell(&[0]).unwrap().sum, 6.0);
        assert_eq!(by_machine.cell(&[1]).unwrap().sum, 60.0);
        let by_job = cube.roll_up("machine").unwrap();
        assert_eq!(by_job.cell(&[1]).unwrap().sum, 22.0);
        assert!(cube.roll_up("nope").is_err());
        // Rolling up the last dimension is rejected.
        assert!(by_machine.roll_up("machine").is_err());
    }

    #[test]
    fn slice_fixes_member() {
        let cube = cube_2x3();
        let m1 = cube.slice("machine", 1).unwrap();
        assert_eq!(m1.iter().count(), 3);
        assert_eq!(m1.cell(&[0]).unwrap().sum, 10.0);
        assert!(cube.slice("machine", 7).is_err());
        assert!(cube.slice("ghost", 0).is_err());
    }

    #[test]
    fn iteration_is_deterministic() {
        let cube = cube_2x3();
        let coords: Vec<Vec<usize>> = cube.iter().map(|(c, _)| c.to_vec()).collect();
        let mut sorted = coords.clone();
        sorted.sort();
        assert_eq!(coords, sorted);
    }
}
