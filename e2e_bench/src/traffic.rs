//! The seeded serving traffic: a row pool and a request stream.
//!
//! Request `i` of the stream is a pure function of the workload seed and
//! `i`: single-row or 2–9-row batch predicts over a pool of schema-shaped
//! Adult rows, plus a `/v1/feedback` report with the rows' true labels for
//! a fixed share of answered predicts. The same seed therefore sends a
//! byte-identical stream, whatever the timing.

use fairlens_frame::{Column, Dataset};
use fairlens_json::{object, Value};
use fairlens_synth::DatasetKind;

use crate::mix;

/// Rows in the request pool.
const POOL_ROWS: usize = 512;
/// Share of answered predicts followed by a feedback report, per mille.
const FEEDBACK_PER_MILLE: u64 = 250;

const POOL_SALT: u64 = 0x706f_6f6c; // "pool"
const FEEDBACK_SALT: u64 = 0x6665_6564_6261_636b; // "feedback"

/// The pool the stream draws rows from.
pub fn pool(seed: u64) -> Dataset {
    DatasetKind::Adult.generate(POOL_ROWS, mix(seed, POOL_SALT))
}

/// One schema-shaped JSON row, as a client would send it.
pub fn row_json(data: &Dataset, r: usize) -> Value {
    let mut fields: Vec<(String, Value)> = data
        .columns()
        .iter()
        .zip(data.attr_names())
        .map(|(col, name)| {
            let v = match col {
                Column::Numeric(xs) => Value::Number(xs[r]),
                Column::Categorical { codes, levels } => {
                    Value::String(levels[codes[r] as usize].clone())
                }
            };
            (name.clone(), v)
        })
        .collect();
    fields.push((
        data.sensitive_name().to_string(),
        Value::Integer(u64::from(data.sensitive()[r])),
    ));
    Value::Object(fields)
}

/// Request `i` of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Pool rows scored, in order.
    pub rows: Vec<usize>,
    /// `{"row": …}` rather than `{"rows": [...]}`.
    pub single: bool,
    /// Whether the answered predict is followed by a feedback report.
    pub feedback: bool,
}

/// The `i`-th request of the stream for `seed`.
pub fn request(seed: u64, i: u64) -> Request {
    let h = mix(seed, i);
    let single = h.is_multiple_of(4);
    let rows = if single {
        vec![(h >> 8) as usize % POOL_ROWS]
    } else {
        let n = 2 + ((h >> 16) % 8) as usize;
        (0..n)
            .map(|j| ((h >> 24) as usize + j * 37) % POOL_ROWS)
            .collect()
    };
    let feedback = mix(seed ^ FEEDBACK_SALT, i) % 1000 < FEEDBACK_PER_MILLE;
    Request {
        rows,
        single,
        feedback,
    }
}

/// The `/v1/predict` body of `req`.
pub fn predict_body(model: &str, pool: &[Value], req: &Request) -> String {
    let model = ("model", Value::String(model.to_string()));
    let body = if req.single {
        object([model, ("row", pool[req.rows[0]].clone())])
    } else {
        object([
            model,
            (
                "rows",
                Value::Array(req.rows.iter().map(|&r| pool[r].clone()).collect()),
            ),
        ])
    };
    body.to_json()
}

/// The `/v1/feedback` body reporting `labels` for the predict answered
/// with `seq`.
pub fn feedback_body(model: &str, seq: u64, labels: &[u8], single: bool) -> String {
    let label = |l: u8| Value::Integer(u64::from(l));
    let reported = if single {
        ("label", label(labels[0]))
    } else {
        (
            "labels",
            Value::Array(labels.iter().copied().map(label).collect()),
        )
    };
    object([
        ("model", Value::String(model.to_string())),
        ("seq", Value::Integer(seq)),
        reported,
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: u64) -> Vec<String> {
        let data = pool(seed);
        let rows: Vec<Value> = (0..data.n_rows()).map(|r| row_json(&data, r)).collect();
        (0..n)
            .map(|i| {
                let req = request(seed, i);
                format!("{}|{}", req.feedback, predict_body("adult-lr", &rows, &req))
            })
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_stream() {
        let a = stream(7, 200);
        assert_eq!(a, stream(7, 200));
        let b = stream(8, 200);
        assert_ne!(a, b);
        assert!(a.iter().zip(&b).filter(|(x, y)| x != y).count() > 150);
    }

    #[test]
    fn mix_has_singles_batches_and_the_feedback_share() {
        let reqs: Vec<Request> = (0..4000).map(|i| request(3, i)).collect();
        let singles = reqs.iter().filter(|r| r.single).count();
        assert!((800..1200).contains(&singles), "{singles}");
        assert!(reqs.iter().all(|r| r.single == (r.rows.len() == 1)));
        assert!(reqs
            .iter()
            .filter(|r| !r.single)
            .all(|r| (2..=9).contains(&r.rows.len())));
        let feedback = reqs.iter().filter(|r| r.feedback).count();
        assert!((800..1200).contains(&feedback), "{feedback}");
    }

    #[test]
    fn bodies_have_the_served_shapes() {
        let body = feedback_body("adult-lr", 41, &[1, 0], false);
        assert_eq!(body, r#"{"model":"adult-lr","seq":41,"labels":[1,0]}"#);
        let body = feedback_body("adult-lr", 5, &[1], true);
        assert_eq!(body, r#"{"model":"adult-lr","seq":5,"label":1}"#);
    }
}
