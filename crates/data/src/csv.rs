//! Minimal CSV reading for data matrices.
//!
//! Deliberately tiny: comma separator, no quoting, header row with column
//! names.

use sider_linalg::Matrix;
use std::io::{self, BufRead};

/// Parse a CSV with a header row into `(header, matrix)`.
pub fn read_matrix<R: BufRead>(input: R) -> io::Result<(Vec<String>, Matrix)> {
    let mut lines = input.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty csv"))??;
    let header: Vec<String> = header_line
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    let d = header.len();
    let mut data: Vec<f64> = Vec::new();
    let mut rows = 0;
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != d {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "line {}: {} fields, expected {}",
                    lineno + 2,
                    fields.len(),
                    d
                ),
            ));
        }
        for f in fields {
            let v: f64 = f.trim().parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad number {f:?}: {e}", lineno + 2),
                )
            })?;
            data.push(v);
        }
        rows += 1;
    }
    Ok((header, Matrix::from_vec(rows, d, data)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_from_string(s: &str) -> io::Result<(Vec<String>, Matrix)> {
        read_matrix(s.as_bytes())
    }

    #[test]
    fn reads_header_and_rows() {
        let (h, m) = matrix_from_string("a, b\n1,2.5\n-3, 0.125\n").unwrap();
        assert_eq!(h, vec!["a", "b"]);
        assert_eq!(m, Matrix::from_rows(&[vec![1.0, 2.5], vec![-3.0, 0.125]]));
    }

    #[test]
    fn skips_blank_lines() {
        let (h, m) = matrix_from_string("x,y\n1,2\n\n3,4\n").unwrap();
        assert_eq!(h, vec!["x", "y"]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn rejects_ragged_rows() {
        assert!(matrix_from_string("x,y\n1,2,3\n").is_err());
    }

    #[test]
    fn rejects_bad_numbers() {
        assert!(matrix_from_string("x\nfoo\n").is_err());
    }

    #[test]
    fn rejects_empty_input() {
        assert!(matrix_from_string("").is_err());
    }

    #[test]
    fn preserves_precision() {
        let (_, m) = matrix_from_string("pi\n3.141592653589793\n").unwrap();
        assert_eq!(m[(0, 0)], std::f64::consts::PI);
    }
}
