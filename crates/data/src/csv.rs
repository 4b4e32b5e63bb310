//! Minimal CSV persistence for point sets (no header, one point per
//! line, comma-separated coordinates).

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use wnrs_geometry::Point;

/// Serialises points to CSV text.
pub fn to_csv(points: &[Point]) -> String {
    let mut out = String::new();
    for p in points {
        for (i, c) in p.coords().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Round-trippable f64 formatting; fmt::Write into a String is
            // infallible, so the Result carries no information.
            let _ = write!(out, "{c}");
        }
        out.push('\n');
    }
    out
}

/// Parses points from CSV text. Empty lines and `#` comments are
/// skipped.
///
/// # Errors
///
/// Returns a descriptive error, naming the line, for malformed or
/// non-finite numbers and ragged rows.
pub fn from_csv(text: &str) -> Result<Vec<Point>, String> {
    let mut points = Vec::new();
    let mut dim = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let coords: Result<Vec<f64>, _> =
            line.split(',').map(|f| f.trim().parse::<f64>()).collect();
        let coords = coords.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if let Some(c) = coords.iter().find(|c| !c.is_finite()) {
            return Err(format!("line {}: coordinate {c} is not finite", lineno + 1));
        }
        match dim {
            None => dim = Some(coords.len()),
            Some(d) if d != coords.len() => {
                return Err(format!(
                    "line {}: expected {d} fields, got {}",
                    lineno + 1,
                    coords.len()
                ))
            }
            _ => {}
        }
        points.push(Point::new(coords));
    }
    Ok(points)
}

/// Writes points to a file.
pub fn save(points: &[Point], path: &Path) -> io::Result<()> {
    std::fs::write(path, to_csv(points))
}

/// Reads points from a file.
pub fn load(path: &Path) -> io::Result<Vec<Point>> {
    let text = std::fs::read_to_string(path)?;
    from_csv(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let pts = vec![Point::xy(1.5, -2.25), Point::xy(0.1, 1e9)];
        let text = to_csv(&pts);
        let back = from_csv(&text).expect("parse");
        assert_eq!(back.len(), 2);
        assert!(back[0].same_location(&pts[0]));
        assert!(back[1].same_location(&pts[1]));
    }

    #[test]
    fn comments_and_blank_lines() {
        let text = "# cars\n\n1,2\n 3 , 4 \n";
        let pts = from_csv(text).expect("parse");
        assert_eq!(pts.len(), 2);
        assert!(pts[1].same_location(&Point::xy(3.0, 4.0)));
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(from_csv("1,2\n3\n").is_err());
    }

    #[test]
    fn bad_number_rejected() {
        let err = from_csv("1,abc\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn non_finite_number_rejected() {
        for text in ["nan,1\n", "1,2\n3,inf\n", "1e400,2\n"] {
            let err = from_csv(text).unwrap_err();
            assert!(err.contains("not finite"), "{err}");
        }
        assert!(from_csv("1,2\n3,inf\n").unwrap_err().contains("line 2"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("wnrs_csv_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("points.csv");
        let pts = vec![Point::xy(8.5, 55.0)];
        save(&pts, &path).expect("save");
        let back = load(&path).expect("load");
        assert!(back[0].same_location(&pts[0]));
        std::fs::remove_file(&path).ok();
    }
}
