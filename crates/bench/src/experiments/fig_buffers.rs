//! Regenerates **Figure 2**: concurrent data transfer through multiple
//! I/O buffers. Sweeps the number of mapped kernel buffers and the
//! transfer size on the HSM (ATM API) stack and reports one-way delivery
//! latency — buffer count 1 serializes host copy and adapter DMA; 2 or
//! more pipeline them.
//!
//! ```text
//! cargo run --release -p ncs-bench -- fig_buffers
//! ```

use super::{atm_lan_api, one_way, JsonDoc, Opts};
use ncs_net::{AtmApiParams, HostParams};
use ncs_sim::Dur;

pub(super) fn run(_: &Opts, out: &mut String) -> Option<JsonDoc> {
    *out += "# Figure 2 — Concurrent data transfers via multiple I/O buffers\n";
    *out += "# (one-way latency, SPARC IPX on the FORE ATM LAN, HSM stack)\n\n";
    *out += "transfer size | 1 buffer | 2 buffers | 4 buffers | 8 buffers | 2-buf speedup\n";
    *out += "--------------+----------+-----------+-----------+-----------+--------------\n";
    for bytes in [8 << 10, 32 << 10, 128 << 10, 512 << 10] {
        let lats: Vec<Dur> = [1, 2, 4, 8]
            .iter()
            .map(|&num_buffers| {
                let params = AtmApiParams {
                    num_buffers,
                    ..AtmApiParams::default()
                };
                one_way(atm_lan_api(2, HostParams::sparc_ipx(), params), bytes)
            })
            .collect();
        *out += &format!(
            "{:10} KB | {:>8.2} | {:>9.2} | {:>9.2} | {:>9.2} | {:.2}x\n",
            bytes / 1024,
            lats[0].as_secs_f64() * 1e3,
            lats[1].as_secs_f64() * 1e3,
            lats[2].as_secs_f64() * 1e3,
            lats[3].as_secs_f64() * 1e3,
            lats[0].as_secs_f64() / lats[1].as_secs_f64(),
        );
    }
    *out += "\n(times in milliseconds; the paper's Figure 2 is the 1->2 buffer\n";
    *out += " transition: host fills buffer k+1 while the SBA-200 drains k)\n";
    None
}
