//! Minimal CSV export (std-only) for plot-ready experiment data, and the
//! FNV-1a-64 digest of exactly the bytes the export writes.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Escapes a CSV cell per RFC 4180 (quotes cells containing separators).
fn escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// One CSV line, escaped, without its newline.
fn line<S: AsRef<str>>(cells: &[S]) -> String {
    cells
        .iter()
        .map(|c| escape(c.as_ref()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Streams a header and rows as CSV into `w`: the one encoder behind both
/// [`write_csv`] and [`csv_digest`].
fn emit<S: AsRef<str>>(
    w: &mut impl Write,
    headers: &[S],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    writeln!(w, "{}", line(headers))?;
    for row in rows {
        writeln!(w, "{}", line(row))?;
    }
    Ok(())
}

/// Writes a header and rows to a CSV file, creating parent directories.
///
/// # Errors
///
/// Returns any I/O error from creating directories or writing the file.
///
/// # Examples
///
/// ```no_run
/// pp_analysis::write_csv(
///     "results/fig2.csv",
///     &["time", "min", "median", "max"],
///     &[vec!["0".into(), "1".into(), "1".into(), "1".into()]],
/// )?;
/// # std::io::Result::Ok(())
/// ```
pub fn write_csv<S: AsRef<str>>(
    path: impl AsRef<Path>,
    headers: &[S],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut w = BufWriter::new(File::create(path)?);
    emit(&mut w, headers, rows)?;
    w.flush()
}

/// FNV-1a-64 of the bytes [`write_csv`] writes for `headers` and `rows`,
/// without touching the filesystem: equal digests mean byte-equal files.
///
/// # Examples
///
/// ```
/// use std::io::Write;
///
/// let rows = vec![vec!["1".to_string(), "x,y".to_string()]];
/// let mut hash = pp_analysis::Fnv64::new();
/// hash.write_all(b"a,b\n1,\"x,y\"\n").unwrap();
/// assert_eq!(pp_analysis::csv_digest(&["a", "b"], &rows), hash.finish());
/// ```
pub fn csv_digest<S: AsRef<str>>(headers: &[S], rows: &[Vec<String>]) -> u64 {
    let mut hash = Fnv64::new();
    emit(&mut hash, headers, rows).expect("hashing cannot fail");
    hash.finish()
}

/// The FNV-1a 64-bit hash as an [`std::io::Write`] sink.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hash of no bytes (the FNV-1a offset basis).
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// The hash of every byte written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Write for Fnv64 {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_escapes() {
        let dir = std::env::temp_dir().join("pp_analysis_csv_test");
        let path = dir.join("out.csv");
        let rows = [
            vec!["1".into(), "plain".into()],
            vec!["2".into(), "has,comma".into()],
            vec!["3".into(), "has\"quote".into()],
        ];
        write_csv(&path, &["a", "b"], &rows).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,plain");
        assert_eq!(lines[2], "2,\"has,comma\"");
        assert_eq!(lines[3], "3,\"has\"\"quote\"");
        let mut hash = Fnv64::new();
        hash.write_all(content.as_bytes()).unwrap();
        assert_eq!(csv_digest(&["a", "b"], &rows), hash.finish());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        let digest = |s: &str| {
            let mut hash = Fnv64::new();
            hash.write_all(s.as_bytes()).unwrap();
            hash.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }
}
