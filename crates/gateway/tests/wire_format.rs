//! Pins the exact wire bytes. Peers built from older sources must keep
//! understanding this server and vice versa, so any change to the encoder
//! has to reproduce the v1 and v2 layouts byte for byte: fixed frames of
//! every kind are encoded and compared against their full hex dumps, and
//! each dump decodes back to its frame.

use stisan_gateway::protocol::{
    decode, encode, ErrorCode, ErrorFrame, Frame, Request, Response, TraceEcho, Visit,
};

fn request(trace_id: Option<u64>) -> Request {
    Request {
        user: 7,
        k: 10,
        deadline_ms: 250,
        seq: vec![
            Visit { poi: 3, time: 1_000.0, lat: 30.25, lon: -97.75 },
            Visit { poi: 9, time: 2_000.5, lat: -0.1, lon: 151.2 },
        ],
        trace_id,
    }
}

fn response(trace: Option<TraceEcho>) -> Response {
    Response { pool: 500, scored: 120, items: vec![(4, 1.5), (2, -0.25), (9, 0.1)], trace }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Encodes `frame`, compares against `expected` (hex, whitespace ignored),
/// and checks the pinned bytes decode back to `frame`.
fn assert_pinned(frame: &Frame, expected: &str) {
    let expected: String = expected.split_whitespace().collect();
    assert_eq!(hex(&encode(frame)), expected);
    let bytes: Vec<u8> = (0..expected.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&expected[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(&decode(&bytes).unwrap(), frame);
}

// Each dump is laid out header / payload fields / CRC-32 footer.

#[test]
fn v1_request_bytes_are_pinned() {
    assert_pinned(
        &Frame::Request(request(None)),
        "53544757 01 01 0000 44000000
         07000000 0a00 fa000000 0200
         03000000 0000000000408f40 0000000000403e40 00000000007058c0
         09000000 0000000000429f40 9a9999999999b9bf 6666666666e66240
         36fe3241",
    );
}

#[test]
fn v2_request_bytes_are_pinned() {
    assert_pinned(
        &Frame::Request(request(Some(0xDEAD_BEEF_CAFE_F00D))),
        "53544757 02 01 0000 4c000000
         07000000 0a00 fa000000 0200
         03000000 0000000000408f40 0000000000403e40 00000000007058c0
         09000000 0000000000429f40 9a9999999999b9bf 6666666666e66240
         0df0fecaefbeadde
         a92a8079",
    );
}

#[test]
fn v1_response_bytes_are_pinned() {
    assert_pinned(
        &Frame::Response(response(None)),
        "53544757 01 02 0000 22000000
         f4010000 78000000 0300
         04000000 0000c03f 02000000 000080be 09000000 cdcccc3d
         095ea356",
    );
}

#[test]
fn v2_response_bytes_are_pinned() {
    let echo = TraceEcho { trace_id: 99, stage_us: [10, 250, 900, 950] };
    assert_pinned(
        &Frame::Response(response(Some(echo))),
        "53544757 02 02 0000 3a000000
         f4010000 78000000 0300
         04000000 0000c03f 02000000 000080be 09000000 cdcccc3d
         6300000000000000 0a000000 fa000000 84030000 b6030000
         bbf71878",
    );
}

#[test]
fn error_frame_bytes_are_pinned() {
    assert_pinned(
        &Frame::Error(ErrorFrame::new(ErrorCode::Overloaded, "pending queue full")),
        "53544757 01 03 0000 15000000
         04 1200 70656e64696e672071756575652066756c6c
         84253cdb",
    );
}
