//! Output plugins (ViDa Figure 3 / Figure 4).
//!
//! "Query output is given to output plugins, which materialize it in the
//! format an application expects." A query result — one [`Value`], typically
//! a collection of records — can leave the engine as:
//!
//! - **parsed values** ([`to_values`]): the in-memory `Value` rows, for
//!   callers staying inside the engine;
//! - **text** ([`OutputFormat::Text`]): one printed row per line, the
//!   paper's "CSV or JSON output" for interactive use;
//! - **binary JSON** ([`OutputFormat::BinaryJson`]): the compact
//!   serialization of `vida-cache::bson`, Figure 4's layout (b), for
//!   applications that re-read results repeatedly;
//! - **CSV rows** ([`OutputFormat::Csv`]): RFC-4180-style quoted rows for
//!   flat record collections.

use vida_cache::bson;
use vida_types::{Result, Value, VidaError};

/// The materialization formats an application can request for a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputFormat {
    Text,
    BinaryJson,
    Csv,
}

impl OutputFormat {
    /// Materialize `result` in this format as bytes (the uniform plugin
    /// interface; use the typed helpers below to avoid re-parsing).
    pub fn write(&self, result: &Value) -> Result<Vec<u8>> {
        match self {
            OutputFormat::Text => Ok(to_text(result).into_bytes()),
            OutputFormat::BinaryJson => Ok(to_binary_json(result)),
            OutputFormat::Csv => to_csv(result).map(String::into_bytes),
        }
    }
}

/// The result as a row list: collections yield their elements, a scalar
/// result yields a single row.
pub fn to_values(result: &Value) -> Vec<Value> {
    match result.elements() {
        Some(items) => items.to_vec(),
        None => vec![result.clone()],
    }
}

/// One printed row per line (scalar results print as one line).
pub fn to_text(result: &Value) -> String {
    let mut out = String::new();
    for row in to_values(result) {
        out.push_str(&row.to_string());
        out.push('\n');
    }
    out
}

/// The whole result in the binary-JSON layout of Figure 4 (b).
pub fn to_binary_json(result: &Value) -> Vec<u8> {
    bson::to_bytes(result)
}

/// CSV rows with a header line. Requires every row to be a record of
/// scalars sharing the first row's field set; scalar results become a
/// single `value` column.
pub fn to_csv(result: &Value) -> Result<String> {
    let rows = to_values(result);
    let mut out = String::new();
    let Some(first) = rows.first() else {
        return Ok(out);
    };
    let header: Vec<String> = match first {
        Value::Record(fields) => fields.iter().map(|(n, _)| n.clone()).collect(),
        _ => vec!["value".to_string()],
    };
    out.push_str(&header.join(","));
    out.push('\n');
    for row in &rows {
        let cells: Vec<String> = match row {
            Value::Record(fields) => {
                if fields.len() != header.len()
                    || fields.iter().zip(&header).any(|((n, _), h)| n != h)
                {
                    return Err(VidaError::Exec(format!(
                        "csv output requires uniform record rows, got {row}"
                    )));
                }
                fields
                    .iter()
                    .map(|(_, v)| csv_cell(v))
                    .collect::<Result<_>>()?
            }
            v if header.len() == 1 && header[0] == "value" => vec![csv_cell(v)?],
            v => {
                return Err(VidaError::Exec(format!(
                    "csv output requires uniform record rows, got {v}"
                )))
            }
        };
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    Ok(out)
}

fn csv_cell(v: &Value) -> Result<String> {
    let raw = match v {
        Value::Null => String::new(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => s.clone(),
        other => {
            return Err(VidaError::Exec(format!(
                "csv output cannot encode nested value {other}"
            )))
        }
    };
    if raw.contains([',', '"', '\n', '\r']) {
        Ok(format!("\"{}\"", raw.replace('"', "\"\"")))
    } else {
        Ok(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_rows() -> Value {
        Value::bag(vec![
            Value::record([("id", Value::Int(1)), ("city", Value::str("geneva"))]),
            Value::record([("id", Value::Int(2)), ("city", Value::str("a,\"b\""))]),
        ])
    }

    #[test]
    fn values_output_lists_rows() {
        assert_eq!(to_values(&result_rows()).len(), 2);
        assert_eq!(to_values(&Value::Int(7)), vec![Value::Int(7)]);
    }

    #[test]
    fn text_output_one_row_per_line() {
        let t = to_text(&result_rows());
        assert_eq!(t.lines().count(), 2);
        assert!(t.starts_with("(id := 1, city := \"geneva\")\n"));
        assert_eq!(to_text(&Value::Int(7)), "7\n");
    }

    #[test]
    fn binary_json_round_trips() {
        let r = result_rows();
        let bytes = to_binary_json(&r);
        let (back, _) = bson::decode_value(&bytes, 0).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn csv_output_quotes_and_headers() {
        let csv = to_csv(&result_rows()).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("id,city"));
        assert_eq!(lines.next(), Some("1,geneva"));
        assert_eq!(lines.next(), Some("2,\"a,\"\"b\"\"\""));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn csv_scalar_result_uses_value_column() {
        assert_eq!(to_csv(&Value::Int(42)).unwrap(), "value\n42\n");
        assert_eq!(to_csv(&Value::bag(vec![])).unwrap(), "");
    }

    #[test]
    fn csv_rejects_ragged_or_nested_rows() {
        let ragged = Value::bag(vec![
            Value::record([("a", Value::Int(1))]),
            Value::record([("b", Value::Int(2))]),
        ]);
        assert!(to_csv(&ragged).is_err());
        let nested = Value::bag(vec![Value::record([(
            "xs",
            Value::list(vec![Value::Int(1)]),
        )])]);
        assert!(to_csv(&nested).is_err());
    }

    #[test]
    fn format_write_dispatches() {
        let r = result_rows();
        assert_eq!(
            OutputFormat::BinaryJson.write(&r).unwrap(),
            to_binary_json(&r)
        );
        assert_eq!(
            OutputFormat::Text.write(&r).unwrap(),
            to_text(&r).into_bytes()
        );
        assert!(OutputFormat::Csv.write(&Value::Int(1)).is_ok());
    }
}
