//! Writing a response body allocates once: the body buffer, sized up
//! front. `App::apply` reads what a response needs under the session
//! lock; `Reply::into_response` then writes the body with no value
//! tree, no `String` per key and no buffer regrowth. A return to
//! per-key allocation (or an undersized buffer) fails here.
//!
//! Asserted with a counting global allocator. This file deliberately
//! holds a single test: the counter is process-global, and a sibling
//! test allocating on another thread would race the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cluster::engine::{ClusterConfig, ClusterSession, ScalePreset};
use cluster::systems::SystemKind;
use serve::http::Request;
use serve::json::Json;
use serve::{App, ServeClock};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees hold; the counter is a statistic only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn request<'a>(method: &'a str, path: &'a str, body: &'a str) -> Request<'a> {
    Request {
        method,
        path,
        body: body.as_bytes(),
        ..Request::default()
    }
}

#[test]
fn writing_a_body_allocates_only_its_buffer() {
    let config = ClusterConfig::builder(ScalePreset::Physical, SystemKind::Mudi, 7)
        .jobs(12)
        .llm_services(true)
        .build();
    let app = App::new(
        ClusterSession::new_scaled(config, 0.002),
        ServeClock::frozen(),
    );
    let advance = app.handle(&request("POST", "/admin/clock", r#"{"advance_s":900}"#));
    assert_eq!(advance.status, 200);

    for (method, path, body) in [
        ("GET", "/admin/slo", ""),
        ("POST", "/v1/infer", r#"{"service":0}"#),
        ("POST", "/v1/infer", r#"{"service":"Llama-7B","tokens":64}"#),
        (
            "POST",
            "/v1/infer",
            r#"{"service":"OPT-13B","tokens":4096}"#,
        ),
    ] {
        let reply = app.apply(&request(method, path, body));
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let resp = reply.into_response();
        let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
        let text = std::str::from_utf8(&resp.body).unwrap();
        assert_eq!(resp.status, 200, "{path} {body}: {text}");
        assert_eq!(delta, 1, "{path} {body} allocated {delta} times");

        // The counter sees the allocations a value tree makes, or the
        // count above proves nothing.
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let tree = Json::parse(text).expect("JSON body");
        assert!(ALLOCATIONS.load(Ordering::SeqCst) - before > 1);
        assert!(matches!(tree, Json::Obj(_)));
    }
}
