// tnb::fleet — the multi-channel gateway: one wideband stream, a
// channelizer front end, and per-(channel, SF) StreamingReceiver lanes
// run as tasks on a common::ThreadPool, merged into one packet ledger
// (DESIGN.md "Gateway fleet").
//
// Data path: push_wideband() (producer thread) channelizes into per-
// channel staging buffers; every 16 symbols of the largest SF staged on a
// channel become one chunk, copied into the bounded queue (4 chunks) of
// each of that channel's SF lanes (blocking when a queue is full —
// backpressure bounds total resident IQ). A chunk that lands on an idle
// lane submits one drain task to the pool, which decodes that lane's
// queued chunks in arrival order and returns once the queue is empty. A
// lane has at most one task queued or running, so every lane decodes
// exactly as a standalone StreamingReceiver fed the same channel stream —
// scheduling affects wall clock, never output. One mutex guards the
// lane queues, flags and stats snapshots, the counters and the
// resident-IQ tally.
//
// Each lane appends its decoded packets, tagged (channel, SF), to its own
// vector; only the lane's one task runs its receiver, so the append takes
// no lock. finish() merges the lanes' vectors into the ledger in the
// canonical (start sample, channel, SF, payload) order, identical for
// every worker count and chunk size.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/channelizer.hpp"
#include "sim/metrics.hpp"
#include "stream/ring_buffer.hpp"
#include "stream/streaming_receiver.hpp"

namespace tnb::fleet {

struct FleetOptions {
  /// Channels in the wideband input (power of two, see Channelizer).
  unsigned n_channels = 8;
  /// One lane per (channel, SF): every channel is decoded at each of these
  /// spreading factors in parallel, the way a real gateway listens on
  /// SF7-12 per frequency.
  std::vector<unsigned> sfs = {8};
  /// Worker threads running the lanes' tasks. <= 0 resolves via TNB_JOBS
  /// (common::resolve_jobs); the lane count caps it.
  int lanes = 1;
  /// Per-lane streaming configuration (window, rng_seed, ...).
  /// keep_packets is forced off — each lane keeps its packets for the
  /// ledger.
  stream::StreamingOptions stream;
  /// Per-lane receiver configuration; metric_labels is overwritten with
  /// each lane's {channel, sf} labels.
  rx::ReceiverOptions receiver;
};

/// Identity and geometry of one lane.
struct LaneInfo {
  unsigned channel = 0;
  unsigned sf = 0;
  /// Effective assembly window (after the StreamingReceiver's floor), in
  /// channel-rate samples; resident IQ per lane stays below twice this.
  std::size_t window_samples = 0;
};

/// One ledger packet, tagged with the lane that decoded it.
/// pkt.start_sample is in channel-rate samples, which every lane shares
/// (fs is SF-independent), so entries from all lanes order on one clock.
struct LedgerEntry {
  unsigned channel = 0;
  unsigned sf = 0;
  sim::DecodedPacket pkt;
};

/// Canonical ledger order: (pkt.start_sample, channel, sf, payload bytes).
bool ledger_entry_less(const LedgerEntry& a, const LedgerEntry& b);

/// Counters of one fleet run. Cumulative like ReceiverStats: snapshots
/// taken mid-run (the daemon's periodic stats line) are consistent,
/// monotone views.
struct FleetStats {
  unsigned channels = 0;
  std::vector<unsigned> sfs;
  unsigned lanes = 0;                      ///< worker threads
  std::size_t wideband_samples_in = 0;
  std::size_t wideband_blocks = 0;         ///< channelizer blocks processed
  std::size_t partial_tail_samples = 0;    ///< sub-block tail dropped at EOF
  std::size_t chunks_dispatched = 0;       ///< lane-chunks enqueued
  std::size_t resident_iq_samples = 0;     ///< queued + assembly, all lanes
  std::size_t resident_iq_high_water = 0;
  std::size_t resident_iq_bound = 0;       ///< documented ceiling (2W/lane + queues)
  std::size_t packets = 0;                 ///< packets emitted, all lanes
  /// Per-lane streaming stats, fleet lane order (channel-major, then SF).
  std::vector<std::pair<LaneInfo, stream::StreamingStats>> lane_stats;

  /// One-line JSON: {"fleet":{totals...},"channels":{"0":{merged
  /// StreamingStats of channel 0's lanes},...},"totals":{merged
  /// StreamingStats of every lane}} — schema pinned by
  /// tests/test_obs.cpp (FleetStatsJson), documented in DESIGN.md
  /// "Gateway fleet".
  std::string to_json() const;
};

class Fleet {
 public:
  /// `base` carries the shared PHY configuration (bandwidth, OSF, CR);
  /// each lane clones it with its own SF. Worker threads start here.
  Fleet(lora::Params base, FleetOptions opt);
  /// finish() if the caller has not already, then joins the workers.
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Feeds wideband samples (any chunking — the channelizer reassembles
  /// blocks): channelize, stage, dispatch to lane queues. Blocks while
  /// lane queues are full. Throws std::logic_error after finish().
  void push_wideband(std::span<const cfloat> wideband);

  /// End of stream: dispatches every staged sample (the channelizer's
  /// sub-block tail is dropped and counted), lets the lanes drain and
  /// finish, merges their packets into the ledger. Idempotent. Rethrows
  /// the first lane exception after the other lanes have finished; the
  /// failed lane dropped its later chunks and is not flushed, but the
  /// packets it decoded join the ledger.
  void finish();

  /// Every lane's packets in the canonical order. Only valid after
  /// finish().
  const std::vector<LedgerEntry>& ledger() const;

  /// Aggregated counters; safe to call concurrently with the run (the
  /// per-lane stream stats are the lane's last snapshot).
  FleetStats stats() const;

 private:
  struct Lane {
    LaneInfo info;
    /// Packets rx decoded, appended by its callback (declared first, so it
    /// outlives rx): only this lane's task runs rx, so no lock. finish()
    /// moves them into the ledger.
    std::vector<LedgerEntry> packets;
    stream::StreamingReceiver rx;
    std::deque<IqBuffer> q;            ///< guarded by Fleet::mu_
    bool scheduled = false;            ///< a drain task is queued or running
    bool failed = false;               ///< rx threw; later chunks are dropped
    stream::StreamingStats snapshot;   ///< rx.stats() copy, guarded by mu_
    obs::GaugeRef queue_depth;

    Lane(const lora::Params& p, const rx::ReceiverOptions& ropt,
         const stream::StreamingOptions& sopt)
        : rx(p, ropt, sopt) {}
  };

  void enqueue(Lane& lane, IqBuffer chunk);
  /// Pool task: decodes the lane's queued chunks in order, returns once
  /// the queue is empty.
  void drain(Lane& lane);
  /// Runs `chunk` (nullptr = the end-of-stream flush) through the lane's
  /// receiver, then publishes its stats and releases the IQ it retired.
  void step(Lane& lane, const IqBuffer* chunk);
  void dispatch_staged(unsigned channel, bool eof);

  lora::Params base_;
  FleetOptions opt_;
  std::size_t dispatch_samples_ = 0;
  unsigned n_workers_ = 1;

  Channelizer chan_;
  std::vector<IqBuffer> staging_;  ///< per-channel, producer thread only
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< channel-major, then SF
  std::vector<LedgerEntry> ledger_;  ///< the lanes' packets, from finish()

  mutable std::mutex mu_;  ///< guards the lanes' queues, flags, snapshots
  std::condition_variable cv_space_;  ///< producer: a queue has room
  bool finished_ = false;             ///< producer thread only

  std::size_t wideband_samples_in_ = 0;   ///< guarded by mu_
  std::size_t wideband_blocks_ = 0;       ///< guarded by mu_
  std::size_t partial_tail_samples_ = 0;  ///< guarded by mu_
  std::size_t chunks_dispatched_ = 0;     ///< guarded by mu_
  std::size_t resident_ = 0;              ///< guarded by mu_
  std::size_t resident_peak_ = 0;         ///< guarded by mu_
  std::size_t resident_bound_ = 0;

  /// Runs the lanes' tasks; built once n_workers_ is known.
  std::unique_ptr<common::ThreadPool> pool_;

  struct Instrumentation {
    obs::CounterRef wideband_samples_in;
    obs::CounterRef chunks_dispatched;
    obs::CounterRef partial_tail;
    obs::GaugeRef resident_iq;
    obs::GaugeRef resident_iq_high_water;
  };
  Instrumentation obs_;
};

/// Two-thread wideband pipeline, the fleet twin of stream::run_pipeline:
/// stream::pump feeding wideband chunks into `fleet`, which is then
/// finished. `on_chunk`, when set, is called after each consumed chunk with
/// the running wideband sample total (the daemon's stats hook). Returns
/// wideband samples consumed; rethrows a read or decode failure as
/// stream::pump does.
std::size_t run_fleet_pipeline(
    stream::ChunkSource& src, stream::IqRing& ring, Fleet& fleet,
    std::size_t chunk_samples, bool backpressure = true,
    const std::function<void(std::size_t samples_consumed)>& on_chunk = {});

}  // namespace tnb::fleet
