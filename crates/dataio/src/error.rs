use std::error::Error;
use std::fmt;
use std::path::Path;

use ppgnn_tensor::TensorError;

/// Located corruption report: what failed to parse or verify, and —
/// when known — which file, hop, and chunk it sits in, so a flipped bit
/// in a terabyte store points at one re-diffusable unit instead of a
/// shape mismatch deep inside an epoch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CorruptError {
    /// What was wrong with the bytes.
    pub detail: String,
    /// Path of the offending file, when the failure is file-scoped.
    pub path: Option<String>,
    /// Hop index within the store, when known.
    pub hop: Option<usize>,
    /// Chunk index within the hop, when the failure is chunk-scoped
    /// (checksum mismatches always are).
    pub chunk: Option<usize>,
}

impl CorruptError {
    /// A report with only a detail message; context is attached with the
    /// `with_*` builders as it becomes known up the call stack.
    pub fn new(detail: impl Into<String>) -> Self {
        CorruptError {
            detail: detail.into(),
            ..CorruptError::default()
        }
    }

    /// Attaches the offending file path.
    #[must_use]
    pub fn with_path(mut self, path: &Path) -> Self {
        self.path = Some(path.display().to_string());
        self
    }

    /// Attaches the hop index.
    #[must_use]
    pub fn with_hop(mut self, hop: usize) -> Self {
        self.hop = Some(hop);
        self
    }

    /// Attaches the chunk index.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk);
        self
    }
}

impl fmt::Display for CorruptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.detail)?;
        if self.path.is_some() || self.hop.is_some() || self.chunk.is_some() {
            write!(f, " [")?;
            let mut sep = "";
            if let Some(p) = &self.path {
                write!(f, "path={p}")?;
                sep = ", ";
            }
            if let Some(h) = self.hop {
                write!(f, "{sep}hop={h}")?;
                sep = ", ";
            }
            if let Some(c) = self.chunk {
                write!(f, "{sep}chunk={c}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// Errors from the feature store.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DataIoError {
    /// Underlying filesystem error (path + message).
    Io(String),
    /// The manifest file is missing a key or malformed.
    BadManifest(String),
    /// A request referenced a hop or row outside the stored range.
    OutOfRange(String),
    /// Stored bytes failed to parse or verify, with location context.
    Corrupt(CorruptError),
    /// A `PPGNN_*` environment knob holds a value its consumer rejects;
    /// the message names the knob and the value.
    BadKnob(String),
}

impl DataIoError {
    /// A [`DataIoError::Corrupt`] with only a detail message.
    pub fn corrupt(detail: impl Into<String>) -> Self {
        DataIoError::Corrupt(CorruptError::new(detail))
    }
}

impl fmt::Display for DataIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataIoError::Io(m) => write!(f, "feature-store i/o failure: {m}"),
            DataIoError::BadManifest(m) => write!(f, "bad manifest: {m}"),
            DataIoError::OutOfRange(m) => write!(f, "request out of range: {m}"),
            DataIoError::Corrupt(c) => write!(f, "corrupt store: {c}"),
            DataIoError::BadKnob(m) => write!(f, "bad knob: {m}"),
        }
    }
}

impl Error for DataIoError {}

impl From<std::io::Error> for DataIoError {
    fn from(e: std::io::Error) -> Self {
        DataIoError::Io(e.to_string())
    }
}

impl From<TensorError> for DataIoError {
    fn from(e: TensorError) -> Self {
        DataIoError::Corrupt(CorruptError::new(e.to_string()))
    }
}

impl From<CorruptError> for DataIoError {
    fn from(c: CorruptError) -> Self {
        DataIoError::Corrupt(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_messages() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: DataIoError = io.into();
        assert!(e.to_string().contains("gone"));
        let t: DataIoError = TensorError::BadHeader("x".into()).into();
        assert!(matches!(t, DataIoError::Corrupt(_)));
    }

    #[test]
    fn corrupt_display_carries_location_context() {
        let c = CorruptError::new("chunk checksum mismatch")
            .with_path(Path::new("/s/hop_1.ppgt"))
            .with_hop(1)
            .with_chunk(3);
        let msg = DataIoError::Corrupt(c).to_string();
        assert!(msg.contains("chunk checksum mismatch"), "{msg}");
        assert!(msg.contains("path=/s/hop_1.ppgt"), "{msg}");
        assert!(msg.contains("hop=1"), "{msg}");
        assert!(msg.contains("chunk=3"), "{msg}");

        // Context-free reports stay bare: no empty bracket suffix.
        let bare = CorruptError::new("oops").to_string();
        assert_eq!(bare, "oops");
    }
}
