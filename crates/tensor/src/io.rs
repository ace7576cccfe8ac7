//! FROSTT `.tns` text format I/O.
//!
//! The FROSTT repository distributes tensors as whitespace-separated text:
//! one non-zero per line, `order` 1-based indices followed by the value.
//! Comment lines start with `#`. This reader/writer lets real datasets be
//! dropped into the benchmark harnesses in place of the synthetic presets.

use crate::{CooTensor, Idx, Val};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors produced by the `.tns` reader.
#[derive(Debug)]
pub enum TnsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed (1-based line number, message).
    Parse(usize, String),
    /// The file contained no non-zero entries.
    Empty,
}

impl std::fmt::Display for TnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TnsError::Io(e) => write!(f, "I/O error: {e}"),
            TnsError::Parse(line, msg) => write!(f, "parse error on line {line}: {msg}"),
            TnsError::Empty => write!(f, "tensor file contains no entries"),
        }
    }
}

impl std::error::Error for TnsError {}

impl From<std::io::Error> for TnsError {
    fn from(e: std::io::Error) -> Self {
        TnsError::Io(e)
    }
}

/// Reads a `.tns` tensor from any reader. Mode sizes are inferred as the
/// maximum index seen per mode (the FROSTT convention).
pub fn read_tns(reader: impl Read) -> Result<CooTensor, TnsError> {
    let buf = BufReader::new(reader);
    let mut order: Option<usize> = None;
    let mut inds: Vec<Vec<Idx>> = Vec::new();
    let mut vals: Vec<Val> = Vec::new();
    let mut line_buf = String::new();
    let mut reader = buf;
    let mut lineno = 0usize;

    loop {
        line_buf.clear();
        if reader.read_line(&mut line_buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = line_buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 2 {
            return Err(TnsError::Parse(lineno, "expected indices followed by a value".into()));
        }
        let n = fields.len() - 1;
        match order {
            None => {
                order = Some(n);
                inds = vec![Vec::new(); n];
            }
            Some(o) if o != n => {
                return Err(TnsError::Parse(
                    lineno,
                    format!("inconsistent arity: expected {o} indices, found {n}"),
                ));
            }
            _ => {}
        }
        for (m, f) in fields[..n].iter().enumerate() {
            let one_based: u64 =
                f.parse().map_err(|_| TnsError::Parse(lineno, format!("bad index '{f}'")))?;
            if one_based == 0 {
                return Err(TnsError::Parse(lineno, "indices are 1-based; found 0".into()));
            }
            // The mode size is the largest 1-based index, so it must fit `Idx`.
            if one_based > u64::from(Idx::MAX) {
                return Err(TnsError::Parse(
                    lineno,
                    format!("index {one_based} exceeds the largest mode size {}", Idx::MAX),
                ));
            }
            inds[m].push((one_based - 1) as Idx);
        }
        let v: Val = fields[n]
            .parse()
            .map_err(|_| TnsError::Parse(lineno, format!("bad value '{}'", fields[n])))?;
        vals.push(v);
    }

    if vals.is_empty() {
        return Err(TnsError::Empty);
    }
    let dims: Vec<Idx> = inds.iter().map(|iv| iv.iter().copied().max().unwrap() + 1).collect();
    Ok(CooTensor::from_parts(&dims, inds, vals))
}

/// Reads a `.tns` tensor from a file path.
pub fn read_tns_file(path: impl AsRef<Path>) -> Result<CooTensor, TnsError> {
    read_tns(std::fs::File::open(path)?)
}

/// Writes a tensor in `.tns` format (1-based indices) to any writer.
pub fn write_tns(tensor: &CooTensor, writer: impl Write) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    for e in 0..tensor.nnz() {
        for m in 0..tensor.order() {
            write!(w, "{} ", tensor.mode_indices(m)[e] + 1)?;
        }
        writeln!(w, "{}", tensor.values()[e])?;
    }
    w.flush()
}

/// Writes a tensor to a `.tns` file.
pub fn write_tns_file(tensor: &CooTensor, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_tns(tensor, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_file() {
        let text = "# a comment\n1 1 1 1.5\n2 3 1 -2.0\n\n4 2 2 0.25\n";
        let t = read_tns(text.as_bytes()).unwrap();
        assert_eq!(t.order(), 3);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.dims(), &[4, 3, 2]);
        assert_eq!(t.coord(0), vec![0, 0, 0]);
        assert_eq!(t.values()[1], -2.0);
    }

    #[test]
    fn round_trip_through_text() {
        let orig = CooTensor::random_uniform(&[12, 9, 7], 60, 42);
        let mut buf = Vec::new();
        write_tns(&orig, &mut buf).unwrap();
        let back = read_tns(buf.as_slice()).unwrap();
        assert_eq!(back.nnz(), orig.nnz());
        assert_eq!(back.order(), orig.order());
        // Dims are inferred from max index, so they may shrink; entries match.
        let mut a: Vec<(Vec<Idx>, Val)> =
            (0..orig.nnz()).map(|e| (orig.coord(e), orig.values()[e])).collect();
        let mut b: Vec<(Vec<Idx>, Val)> =
            (0..back.nnz()).map(|e| (back.coord(e), back.values()[e])).collect();
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        for ((ca, va), (cb, vb)) in a.iter().zip(&b) {
            assert_eq!(ca, cb);
            assert!((va - vb).abs() < 1e-5);
        }
    }

    #[test]
    fn rejects_zero_index() {
        let err = read_tns("0 1 2 1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TnsError::Parse(1, _)));
    }

    #[test]
    fn rejects_indices_beyond_the_index_type() {
        // 2³² would make the mode size overflow, and 2³² + 2 would wrap to
        // coordinate 1 if it were truncated.
        for line in ["4294967296 1 1.0\n", "1 1 1.0\n4294967298 1 1.0\n"] {
            let lineno = line.lines().count();
            let err = read_tns(line.as_bytes()).unwrap_err();
            assert!(matches!(err, TnsError::Parse(l, _) if l == lineno), "{line:?}: {err}");
        }
        // The largest representable index still reads.
        let t = read_tns("4294967295 1 1.0\n".as_bytes()).unwrap();
        assert_eq!(t.dims(), &[Idx::MAX, 1]);
        assert_eq!(t.coord(0), vec![Idx::MAX - 1, 0]);
    }

    #[test]
    fn rejects_inconsistent_arity() {
        let err = read_tns("1 1 1 1.0\n1 1 2.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TnsError::Parse(2, _)));
    }

    #[test]
    fn rejects_garbage_value() {
        let err = read_tns("1 1 abc\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TnsError::Parse(1, _)));
    }

    #[test]
    fn empty_file_is_an_error() {
        assert!(matches!(read_tns("# only comments\n".as_bytes()), Err(TnsError::Empty)));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("scalfrag_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("file_round_trip-{}.tns", std::process::id()));
        let orig = CooTensor::random_uniform(&[5, 5], 10, 3);
        write_tns_file(&orig, &path).unwrap();
        let back = read_tns_file(&path).unwrap();
        assert_eq!(back.nnz(), 10);
        std::fs::remove_file(&path).ok();
    }
}
