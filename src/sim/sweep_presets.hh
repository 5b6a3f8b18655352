/**
 * @file
 * Named experiment presets: every paper artifact (Tables 1-4, Figures
 * 3-4) plus the repository's extension/ablation sweeps, expressed as
 * ExperimentSpecs.
 *
 * These are the single source of truth for what each artifact runs:
 * the `cdna_sweep` CLI and the tests expand the same specs, so "the
 * Table 2 configuration" cannot drift between entry points.  Each
 * preset also names the columns of its text table, and the paper
 * artifacts carry the paper's published values, which the
 * `PaperFidelity` tests check against their bands.
 */

#ifndef CDNA_SIM_SWEEP_PRESETS_HH
#define CDNA_SIM_SWEEP_PRESETS_HH

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep.hh"

namespace cdna::sim::presets {

/** Table 1: native Linux vs a Xen guest over six Intel NICs, tx+rx. */
ExperimentSpec table1();
/** Table 2: single-guest transmit -- Xen/Intel, Xen/RiceNIC, CDNA. */
ExperimentSpec table2();
/** Table 3: single-guest receive -- Xen/Intel, Xen/RiceNIC, CDNA. */
ExperimentSpec table3();
/** Table 4: CDNA with/without DMA protection, tx+rx. */
ExperimentSpec table4();
/**
 * Figure 3: transmit throughput vs guest count (1..24), Xen vs CDNA,
 * with the per-guest fairness of each cell.
 */
ExperimentSpec fig3();
/** Figure 4: receive throughput vs guest count (1..24), Xen vs CDNA. */
ExperimentSpec fig4();
/**
 * Extension: RPC tail latency (p50/p99/p999).  A Poisson
 * request/response workload (512 B requests, 8 KB responses) runs
 * against {xen-rice, cdna, cdna-oversub (4 guests paged over 2 NIC
 * contexts), swpt}, each at two load
 * levels and under {healthy, domkill, fwreboot}; the report's
 * rpc_lat_* keys carry the quantiles per cell.
 */
ExperimentSpec latency();
/** Ablation A: CDNA interrupt-coalescing window sweep. */
ExperimentSpec coalesce();
/** Ablation B: decomposition of the DMA-protection cost. */
ExperimentSpec protectionAblation();
/** Ablation C: hardware-context scaling on a single CDNA NIC. */
ExperimentSpec contexts();
/** Ablation D: IOMMU modes (section 5.3). */
ExperimentSpec iommu();
/** Ablation E: Xen RX page-flip vs copy-mode netback. */
ExperimentSpec flipcopy();
/**
 * Extension: closed-loop TCP goodput under wire loss.  Sweeps frame
 * drop rate (plus one corruption point) x {xen, cdna, swpt}, all with
 * the Reno transport, showing retransmission cost and loss recovery.
 */
ExperimentSpec tcpLoss();
/**
 * Extension: failure-domain availability.  Xen vs CDNA vs swpt, two
 * guests on TCP transport, crossed with {fault-free, driver-domain
 * crash at 150 ms, NIC-0 firmware reboot at 150 ms}.  The per-guest
 * downtime and time-to-first-packet columns show the paper's
 * failure-isolation argument: a dom0 crash stalls every Xen guest (and
 * stalls the swpt validator), while CDNA guests ride out both faults
 * with zero downtime.
 */
ExperimentSpec availability();
/**
 * Extension: virtual-context oversubscription.  Sweeps guest count 8 to
 * 256 on one NIC across {xen, cdna}: past 32 guests CDNA pages the
 * guests' contexts over the NIC's 32 through the hypervisor's context
 * pager.  Shows where direct access beats Xen's software path while the
 * hot-tenant working set fits the 32 physical slots, and how paging
 * degrades as it no longer does.
 */
ExperimentSpec oversub();
/**
 * Extension: switch incast.  N TCP senders on one output-queued switch
 * converge on a single receiving guest -- Xen vs CDNA vs swpt
 * receivers, crossed with fanout {2,4,8,16} and per-port switch buffer
 * {32 KiB, 256 KiB}.  Reports switch tail drops, per-flow goodput
 * spread, and sender retransmissions; the shallow-buffer high-fanout
 * cells are loss-limited rather than receiver-limited.
 */
ExperimentSpec incast();
/**
 * Extension: noisy neighbor.  The victim and noisy hosts share one
 * access switch fed by a single trunk from a core switch; cells cross
 * {xen, cdna} victims with {alone, noisy}.  With the neighbor active,
 * an open-loop line-rate stream to the other host saturates the
 * shared trunk and the victim's closed-loop TCP flow degrades through
 * trunk-queue drops.
 */
ExperimentSpec noisyNeighbor();
/**
 * Extension: software-only passthrough three-way.  Sweeps guest count
 * {1, 2, 4, 8, 16} on one NIC across {xen, cdna, swpt} in both
 * directions: guests program real descriptor rings and every doorbell
 * traps into the hypervisor validator.  The swpt_* report keys show
 * where per-descriptor software validation crosses CDNA's per-guest
 * hardware contexts as guest count (and therefore trap rate) grows.
 */
ExperimentSpec swpt();
/**
 * Extension: chaos.  Four CDNA guests transmit clean and under six
 * kinds of fault at once: wire drops, corruption and duplicates,
 * delayed DMA completions, a firmware stall with a watchdog reset and a
 * guest killed mid-transfer.  The columns count each fault and recovery; what
 * must not happen is a DMA protection violation.
 */
ExperimentSpec chaos();

/** Every preset, keyed by CLI name, in documentation order. */
const std::vector<std::pair<std::string, ExperimentSpec (*)()>> &all();

/** Look up a preset by name. */
std::optional<ExperimentSpec> byName(const std::string &name);

} // namespace cdna::sim::presets

#endif // CDNA_SIM_SWEEP_PRESETS_HH
