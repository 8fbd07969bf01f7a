//! The rack prober: a background thread that keeps the balancer's view
//! of the backends fresh.
//!
//! Two jobs, both off the proxy loop's critical path:
//!
//! - **Depth sampling** — for every backend configured with an admin
//!   address, scrape `GET /statz` and record the summed per-shard
//!   depth (the requests each shard holds) via
//!   [`BackendTable::record_sample`]. The
//!   balancer combines the sample with its own in-flight count; when
//!   the scrape stops succeeding the sample goes stale and the balancer
//!   falls back to in-band estimation on its own.
//! - **Reconnection** — backends the proxy marked dead are reconnected
//!   here, where blocking `connect` cannot stall the data path. A fresh
//!   socket is parked on the backend ([`Backend::offer_stream`]) and
//!   the proxy is woken to adopt it.
//!
//! [`BackendTable::record_sample`]: crate::balance::BackendTable::record_sample
//! [`Backend::offer_stream`]: crate::balance::Backend::offer_stream

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use concord_net::poll::Waker;
use concord_obs::client::fetch;
use concord_obs::json::Json;

use crate::proxy::RackShared;

/// Summed `shards[].depth` out of a server `/statz` document.
fn depth_from_statz(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let doc = Json::parse(text).ok()?;
    let shards = doc.get("shards")?.as_arr()?;
    let mut depth = 0u64;
    for shard in shards {
        depth = depth.saturating_add(shard.get("depth")?.as_u64()?);
    }
    Some(depth)
}

fn probe_once(shared: &RackShared, waker: &Waker, interval: Duration) {
    let timeout = interval.max(Duration::from_millis(20));
    for i in 0..shared.table.len() {
        let backend = shared.table.get(i);
        // Reconnect dead backends off the proxy's critical path.
        if !backend.is_connected() && !backend.has_pending_stream() {
            let stream = backend
                .addr()
                .to_socket_addrs()
                .ok()
                .and_then(|mut addrs| addrs.next())
                .and_then(|addr| TcpStream::connect_timeout(&addr, timeout).ok());
            if let Some(stream) = stream {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_ok() {
                    backend.offer_stream(stream);
                    waker.wake();
                }
            }
        }
        // Sample queue depth where an admin plane is configured.
        if let Some(admin) = backend.admin() {
            if let Ok((200, body)) = fetch(admin, "GET", "/statz", timeout) {
                if let Some(depth) = depth_from_statz(&body) {
                    shared.table.record_sample(i, depth);
                }
            }
        }
    }
}

/// Starts the prober thread; it exits when `shared.stop` is set.
pub(crate) fn spawn(
    shared: Arc<RackShared>,
    waker: Arc<Waker>,
    interval: Duration,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("rack-probe".into())
        .spawn(move || {
            while !shared.stop.load(Ordering::Acquire) {
                probe_once(&shared, &waker, interval);
                std::thread::sleep(interval);
            }
        })
        .expect("spawn rack-probe")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statz_depth_sums_across_shards() {
        let body = br#"{"server":{"policy":"fcfs"},"totals":{"ingested":9},
            "shards":[{"shard":0,"depth":3},{"shard":1,"depth":4}]}"#;
        assert_eq!(depth_from_statz(body), Some(7));
    }

    #[test]
    fn malformed_statz_is_ignored_not_fatal() {
        assert_eq!(depth_from_statz(b"not json"), None);
        assert_eq!(depth_from_statz(br#"{"shards":"nope"}"#), None);
        assert_eq!(depth_from_statz(br#"{"totals":{}}"#), None);
        assert_eq!(depth_from_statz(br#"{"shards":[{"shard":0}]}"#), None);
    }
}
