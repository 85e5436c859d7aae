//! Wire protocol between producer (CPU node) and consumer (GPU node).
//!
//! The framing itself — 4-byte little-endian length prefix, chunked
//! hostile-input-safe reads, JSON control messages — lives in
//! [`crate::frame`], the codec this module shares with the `dt-serve`
//! planner daemon (one implementation, two protocols). This module
//! defines the preprocessing protocol's *messages*: the consumer's
//! [`Request`]s and the producer's [`BatchHeader`] response (followed by
//! one raw frame of concatenated token bytes, never base64-inflated).
//!
//! ```text
//! request:  [len][json Request]
//! response: [len][json BatchHeader] [len][raw token bytes]
//! ```

use crate::frame::WireJson;
use dt_data::TrainSample;
use dt_simengine::json::Json;

/// Consumer → producer control messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Produce and send the next global batch of `count` samples.
    FetchBatch {
        /// Samples in the requested global batch.
        count: u32,
    },
    /// Close the session.
    Shutdown,
}

/// Metadata frame preceding the bulk token bytes of one global batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchHeader {
    /// The (already reordered) samples, in dispatch order.
    pub samples: Vec<TrainSample>,
    /// Per-sample token-byte lengths, same order (the bulk frame is their
    /// concatenation).
    pub token_lens: Vec<u64>,
    /// Producer-side CPU time spent preprocessing this batch, nanoseconds
    /// (reported for the Figure 17 accounting).
    pub producer_cpu_ns: u64,
}

impl WireJson for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::FetchBatch { count } => Json::obj(vec![(
                "FetchBatch",
                Json::obj(vec![("count", Json::num_u64(u64::from(*count)))]),
            )]),
            Request::Shutdown => Json::Str("Shutdown".into()),
        }
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        if value.as_str() == Some("Shutdown") {
            return Ok(Request::Shutdown);
        }
        let count = value
            .get("FetchBatch")
            .and_then(|f| f.get("count"))
            .and_then(Json::as_u32)
            .ok_or("malformed Request")?;
        Ok(Request::FetchBatch { count })
    }
}

fn sample_to_json(s: &TrainSample) -> Json {
    Json::obj(vec![
        ("id", Json::num_u64(s.id)),
        ("text_subseqs", Json::arr_u64(s.text_subseqs.iter().copied())),
        (
            "image_resolutions",
            Json::arr_u64(s.image_resolutions.iter().map(|&r| u64::from(r))),
        ),
        ("gen_targets", Json::arr_u64(s.gen_targets.iter().map(|&r| u64::from(r)))),
        ("gen_resolution", Json::num_u64(u64::from(s.gen_resolution))),
        ("raw_image_bytes", Json::num_u64(s.raw_image_bytes)),
        ("patch", Json::num_u64(u64::from(s.patch))),
    ])
}

fn sample_from_json(value: &Json) -> Result<TrainSample, String> {
    let field = |k: &str| value.get(k).ok_or_else(|| format!("sample missing {k}"));
    Ok(TrainSample {
        id: field("id")?.as_u64().ok_or("bad id")?,
        text_subseqs: field("text_subseqs")?.to_u64_vec().ok_or("bad text_subseqs")?,
        image_resolutions: field("image_resolutions")?
            .to_u32_vec()
            .ok_or("bad image_resolutions")?,
        gen_targets: field("gen_targets")?.to_u32_vec().ok_or("bad gen_targets")?,
        gen_resolution: field("gen_resolution")?.as_u32().ok_or("bad gen_resolution")?,
        raw_image_bytes: field("raw_image_bytes")?.as_u64().ok_or("bad raw_image_bytes")?,
        patch: field("patch")?.as_u32().ok_or("bad patch")?,
    })
}

impl WireJson for BatchHeader {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("samples", Json::Arr(self.samples.iter().map(sample_to_json).collect())),
            ("token_lens", Json::arr_u64(self.token_lens.iter().copied())),
            ("producer_cpu_ns", Json::num_u64(self.producer_cpu_ns)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let samples = value
            .get("samples")
            .and_then(Json::as_array)
            .ok_or("header missing samples")?
            .iter()
            .map(sample_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchHeader {
            samples,
            token_lens: value
                .get("token_lens")
                .and_then(Json::to_u64_vec)
                .ok_or("header missing token_lens")?,
            producer_cpu_ns: value
                .get("producer_cpu_ns")
                .and_then(Json::as_u64)
                .ok_or("header missing producer_cpu_ns")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_json, write_frame, write_json};
    use std::io::Cursor;

    #[test]
    fn json_messages_round_trip() {
        let mut buf = Vec::new();
        write_json(&mut buf, &Request::FetchBatch { count: 42 }).unwrap();
        write_json(&mut buf, &Request::Shutdown).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_json::<Request>(&mut cur).unwrap(), Request::FetchBatch { count: 42 });
        assert_eq!(read_json::<Request>(&mut cur).unwrap(), Request::Shutdown);
    }

    #[test]
    fn batch_header_round_trips() {
        let sample = TrainSample {
            id: 99,
            text_subseqs: vec![3, 1, 4],
            image_resolutions: vec![224, 512],
            gen_targets: vec![64],
            gen_resolution: 1024,
            raw_image_bytes: 123_456,
            patch: 14,
        };
        let header = BatchHeader {
            samples: vec![sample],
            token_lens: vec![17],
            producer_cpu_ns: 5_000,
        };
        let mut buf = Vec::new();
        write_json(&mut buf, &header).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_json::<BatchHeader>(&mut cur).unwrap(), header);
    }

    #[test]
    fn garbage_json_is_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"not json").unwrap();
        let mut cur = Cursor::new(buf);
        let err = read_json::<Request>(&mut cur).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
