//! The web-server benchmark lambda (§6.2a).
//!
//! "A common usage pattern for lambdas is to serve web contents, such as
//! text or HTML pages … we wrote a lambda that returns text responses
//! based on the incoming requests." The lambda selects a page by a
//! 2-byte index in the request payload (page 0 when the payload is
//! empty), emits the status preamble, bulk-copies the page from lambda
//! memory (Listing 2's `memcpy` pattern), signs the page with the
//! checksum helper, and records an access-log entry.
//!
//! Page dispatch is *unrolled*: the compiler bakes each page's offset
//! and length as immediates (NPU toolchains aggressively flatten
//! data-dependent control flow), so the static code size grows with the
//! page count while the per-request dynamic cost stays small.

use lnic_mlambda::builder::FnBuilder;
use lnic_mlambda::ir::{Cmp, HeaderField, Width};
use lnic_mlambda::program::{Lambda, MemObject, Pragma, WorkloadId};

use crate::helpers::{
    checksum64_helper, format_decimal_helper, log_entry_helper, reply_preamble_helper, DATA,
};
pub use crate::helpers::{reply_preamble_helper as preamble_helper, STATUS_PREAMBLE};

/// Static content served by the lambda.
#[derive(Clone, Debug)]
pub struct WebContent {
    /// The pages, indexed by the request's page selector.
    pub pages: Vec<Vec<u8>>,
}

impl WebContent {
    /// Generates `count` HTML-ish pages of roughly `page_size` bytes.
    pub fn generate(count: usize, page_size: usize) -> Self {
        const TAIL: &[u8] = b"</body></html>";
        let pages = (0..count)
            .map(|i| {
                let mut page =
                    format!("<html><head><title>page {i}</title></head><body>").into_bytes();
                let para = format!("<p>lambda-nic serves page {i} fast</p>");
                let body_end = page_size.saturating_sub(TAIL.len());
                page.reserve(body_end.saturating_sub(page.len()) + para.len() + TAIL.len());
                while page.len() < body_end {
                    page.extend_from_slice(para.as_bytes());
                }
                page.extend_from_slice(TAIL);
                page
            })
            .collect();
        WebContent { pages }
    }

    /// Concatenated page bytes with per-page `(offset, len)`.
    fn pack(&self) -> (Vec<u8>, Vec<(u64, u64)>) {
        let mut data = Vec::new();
        let mut table = Vec::with_capacity(self.pages.len());
        for p in &self.pages {
            // Pad each page to an 8-byte boundary so the 64-byte
            // checksum window never crosses the store's end.
            table.push((data.len() as u64, p.len() as u64));
            data.extend_from_slice(p);
            while data.len() % 8 != 0 {
                data.push(0);
            }
        }
        // Checksum window slack.
        data.resize(data.len() + 64, 0);
        (data, table)
    }

    /// Reference implementation: what the lambda responds for a request
    /// carrying `payload`.
    pub fn reference_response(&self, payload: &[u8]) -> Vec<u8> {
        let index = if payload.len() >= 2 {
            u16::from_be_bytes([payload[0], payload[1]]) as usize
        } else {
            0
        };
        let page: &[u8] = self.pages.get(index).map_or(&[], |p| p.as_slice());
        let mut out = STATUS_PREAMBLE.to_vec();
        out.extend_from_slice(page);
        out
    }
}

/// Builds the web-server lambda.
///
/// Local functions: 1 = reply preamble, 2 = checksum64, 3 =
/// format_decimal, 4 = log_entry (all shared-library candidates).
pub fn web_server_lambda(id: WorkloadId, content: &WebContent) -> Lambda {
    let (store, table) = content.pack();

    let mut b = FnBuilder::new("web_server");
    let no_payload = b.label();
    let have_index = b.label();
    let serve = b.label();
    let miss = b.label();
    let page_labels: Vec<_> = (0..table.len()).map(|_| b.label()).collect();

    b = b
        .load_hdr(2, HeaderField::PayloadLen)
        .constant(1, 2)
        .branch(Cmp::Lt, 2, 1, no_payload)
        .constant(1, 0)
        .load_payload(3, 1, Width::B2)
        .jump(have_index)
        .place(no_payload)
        .constant(3, 0)
        .place(have_index);

    // Unrolled page dispatch: baked-in offsets and lengths.
    for (i, label) in page_labels.iter().enumerate() {
        b = b.constant(4, i as u64).branch(Cmp::Eq, 3, 4, *label);
    }
    b = b.jump(miss);
    for (i, label) in page_labels.iter().enumerate() {
        let (off, len) = table[i];
        b = b
            .place(*label)
            .constant(6, off)
            .constant(7, len)
            .jump(serve);
    }

    b = b
        .place(serve)
        .call_local(1) // reply preamble
        .emit_obj(DATA, 6, 7)
        // ETag-style content signature over the page's first 64 bytes.
        .mov(12, 6)
        .call_local(2)
        // Access log: page index (decimal) + sequence + checksum.
        .mov(10, 3)
        .constant(11, 64)
        .call_local(3)
        .load_hdr(18, HeaderField::RequestId)
        .call_local(4)
        .ret_const(0)
        .place(miss)
        .call_local(1);
    let f = b.ret_const(0).build();

    let mut lambda = Lambda::new("web_server", id, f);
    lambda.add_object(MemObject::zeroed("scratch", 256).pragma(Pragma::Hot));
    lambda.add_object(MemObject::with_data("pages", store));
    lambda
        .add_object(MemObject::with_data("preamble", STATUS_PREAMBLE.to_vec()).pragma(Pragma::Hot));
    lambda.add_function(reply_preamble_helper());
    lambda.add_function(checksum64_helper());
    lambda.add_function(format_decimal_helper());
    lambda.add_function(log_entry_helper());
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lnic_mlambda::interp::{run_to_completion, ObjectMemory, RequestCtx};
    use lnic_mlambda::program::Program;
    use std::sync::Arc;

    fn program(content: &WebContent) -> Arc<Program> {
        let mut p = Program::new();
        p.add_lambda(web_server_lambda(WorkloadId(1), content), vec![]);
        p.validate().expect("valid web program");
        Arc::new(p)
    }

    fn respond(content: &WebContent, payload: &[u8]) -> Vec<u8> {
        let p = program(content);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let ctx = RequestCtx {
            payload: Bytes::copy_from_slice(payload),
            ..Default::default()
        };
        run_to_completion(&p, 0, ctx, &mut mem, 10_000_000, |_, _| Bytes::new())
            .expect("web lambda completes")
            .response
            .to_vec()
    }

    #[test]
    fn ir_matches_reference_for_each_page() {
        let content = WebContent::generate(4, 256);
        for i in 0..4u16 {
            let payload = i.to_be_bytes();
            assert_eq!(
                respond(&content, &payload),
                content.reference_response(&payload),
                "page {i}"
            );
        }
    }

    #[test]
    fn empty_payload_serves_page_zero() {
        let content = WebContent::generate(2, 128);
        assert_eq!(respond(&content, &[]), content.reference_response(&[]));
    }

    #[test]
    fn out_of_range_index_serves_preamble_only() {
        let content = WebContent::generate(2, 128);
        let payload = 9u16.to_be_bytes();
        assert_eq!(respond(&content, &payload), STATUS_PREAMBLE.to_vec());
        assert_eq!(
            content.reference_response(&payload),
            STATUS_PREAMBLE.to_vec()
        );
    }

    #[test]
    fn access_log_counter_advances_across_requests() {
        let content = WebContent::generate(2, 128);
        let p = program(&content);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        for _ in 0..3 {
            run_to_completion(
                &p,
                0,
                RequestCtx::default(),
                &mut mem,
                10_000_000,
                |_, _| Bytes::new(),
            )
            .unwrap();
        }
        let scratch = mem.object(0);
        let counter = u64::from_be_bytes(scratch[48..56].try_into().unwrap());
        assert_eq!(counter, 3);
    }

    #[test]
    fn code_size_scales_with_page_count() {
        let small = web_server_lambda(WorkloadId(1), &WebContent::generate(4, 128));
        let large = web_server_lambda(WorkloadId(1), &WebContent::generate(64, 128));
        let count = |l: &Lambda| l.functions.iter().map(|f| f.body.len()).sum::<usize>();
        // Each extra page costs 5 dispatch instructions.
        assert_eq!(count(&large), count(&small) + 60 * 5);
    }

    #[test]
    fn generated_content_is_pinned() {
        let c = WebContent::generate(64, 1024);
        assert_eq!(c.pages.len(), 64);
        let bytes = c.pages.concat();
        assert_eq!(bytes.len(), 67_560);
        // FNV-1a-64 of the concatenated pages.
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(hash, 0x2059_0d02_c07b_9c95);
    }

    #[test]
    fn generated_pages_have_requested_shape() {
        let c = WebContent::generate(3, 500);
        assert_eq!(c.pages.len(), 3);
        for p in &c.pages {
            assert!(p.len() >= 400, "page too small: {}", p.len());
            assert!(p.starts_with(b"<html>"));
            assert!(p.ends_with(b"</html>"));
        }
    }
}
