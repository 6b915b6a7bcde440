//! A suppression that silences nothing: it targets the line after the
//! laundering `max`, so the finding stays and the comment is reported.

pub fn relu(x: f32) -> f32 {
    x.max(0.0)
    // tdfm-lint: allow(nan-laundering, NaN is checked by the caller)
}
