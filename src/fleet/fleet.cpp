#include "fleet/fleet.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "obs/json.hpp"

namespace tnb::fleet {
namespace {

/// Chunk handed to a lane, in symbols of the largest configured SF.
constexpr std::size_t kDispatchSymbols = 16;
/// Bounded per-lane queue, in chunks; the producer blocks when full.
constexpr std::size_t kLaneQueueChunks = 4;

}  // namespace

bool ledger_entry_less(const LedgerEntry& a, const LedgerEntry& b) {
  return std::tie(a.pkt.start_sample, a.channel, a.sf, a.pkt.payload) <
         std::tie(b.pkt.start_sample, b.channel, b.sf, b.pkt.payload);
}

std::string FleetStats::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("fleet").begin_object();
  w.field("channels", static_cast<std::uint64_t>(channels));
  w.key("sfs").begin_array();
  for (unsigned sf : sfs) w.value(std::uint64_t{sf});
  w.end_array();
  w.field("lanes", static_cast<std::uint64_t>(lanes));
  w.field("wideband_samples_in", wideband_samples_in);
  w.field("wideband_blocks", wideband_blocks);
  w.field("partial_tail_samples", partial_tail_samples);
  w.field("chunks_dispatched", chunks_dispatched);
  w.field("resident_iq_samples", resident_iq_samples);
  w.field("resident_iq_high_water", resident_iq_high_water);
  w.field("resident_iq_bound", resident_iq_bound);
  w.field("packets", packets);
  w.end_object();
  // Per-channel objects merge every SF lane of that channel; "totals"
  // merges every lane. Both reuse StreamingStats::to_json so the nested
  // schema is the single-gateway one.
  w.key("channels").begin_object();
  unsigned last_channel = 0;
  stream::StreamingStats acc;
  bool open = false;
  for (const auto& [info, st] : lane_stats) {
    if (open && info.channel != last_channel) {
      w.key(std::to_string(last_channel)).raw(acc.to_json());
      acc = stream::StreamingStats{};
    }
    last_channel = info.channel;
    acc += st;
    open = true;
  }
  if (open) w.key(std::to_string(last_channel)).raw(acc.to_json());
  w.end_object();
  stream::StreamingStats totals;
  for (const auto& [info, st] : lane_stats) totals += st;
  w.key("totals").raw(totals.to_json());
  w.end_object();
  return w.take();
}

Fleet::Fleet(lora::Params base, FleetOptions opt)
    : base_(base),
      opt_(std::move(opt)),
      chan_(opt_.n_channels) {
  base_.validate();
  if (opt_.sfs.empty()) {
    throw std::invalid_argument("FleetOptions: sfs must not be empty");
  }
  unsigned max_sf = 0;
  for (unsigned sf : opt_.sfs) max_sf = std::max(max_sf, sf);
  dispatch_samples_ =
      kDispatchSymbols * (std::size_t{1} << max_sf) * base_.osf;
  staging_.resize(opt_.n_channels);

  const std::size_t n_lanes =
      static_cast<std::size_t>(opt_.n_channels) * opt_.sfs.size();
  obs::Registry* reg = obs::resolve(opt_.receiver.metrics);
  lanes_.reserve(n_lanes);
  for (unsigned c = 0; c < opt_.n_channels; ++c) {
    for (unsigned sf : opt_.sfs) {
      lora::Params p = base_;
      p.sf = sf;
      p.validate();
      rx::ReceiverOptions ropt = opt_.receiver;
      ropt.metric_labels = {{"channel", std::to_string(c)},
                            {"sf", std::to_string(sf)}};
      stream::StreamingOptions sopt = opt_.stream;
      sopt.keep_packets = false;  // the lane keeps them for the ledger
      auto lane = std::make_unique<Lane>(p, ropt, sopt);
      lane->info.channel = c;
      lane->info.sf = sf;
      lane->info.window_samples = lane->rx.options().window_symbols * p.sps();
      lane->rx.set_packet_callback(
          [&l = *lane](const sim::DecodedPacket& pkt) {
            l.packets.push_back(LedgerEntry{l.info.channel, l.info.sf, pkt});
          });
      if (reg != nullptr) {
        lane->queue_depth =
            reg->gauge("tnb_fleet_lane_queue_depth", "Queued lane chunks",
                       ropt.metric_labels);
      }
      lanes_.push_back(std::move(lane));
    }
  }

  // Backpressure ceiling: per lane, the assembly window peaks below 2W
  // (StreamingReceiver invariant) and the queue holds kLaneQueueChunks
  // chunks plus the one in flight.
  resident_bound_ = 0;
  for (const auto& lane : lanes_) {
    resident_bound_ += 2 * lane->info.window_samples +
                       (kLaneQueueChunks + 1) * dispatch_samples_;
  }

  n_workers_ = static_cast<unsigned>(std::clamp<std::size_t>(
      static_cast<std::size_t>(common::resolve_jobs(opt_.lanes)), 1,
      lanes_.size()));
  if (reg != nullptr) {
    obs_.wideband_samples_in = reg->counter(
        "tnb_fleet_wideband_samples_in_total", "Wideband IQ samples ingested");
    obs_.chunks_dispatched = reg->counter("tnb_fleet_chunks_dispatched_total",
                                          "Lane chunks enqueued");
    obs_.partial_tail =
        reg->counter("tnb_fleet_partial_tail_samples_total",
                     "Sub-block wideband tail samples dropped at end of stream");
    obs_.resident_iq = reg->gauge("tnb_fleet_resident_iq_samples",
                                  "IQ samples resident across all lanes");
    obs_.resident_iq_high_water =
        reg->gauge("tnb_fleet_resident_iq_high_water_samples",
                   "High-water mark of resident IQ samples");
  }

  // A lane has at most one task queued or running, so submit() never
  // blocks on the pool's queue.
  pool_ = std::make_unique<common::ThreadPool>(static_cast<int>(n_workers_),
                                               lanes_.size());
}

Fleet::~Fleet() {
  if (!finished_) {
    try {
      finish();
    } catch (...) {
      // A lane's decode exception is undeliverable from a destructor; the
      // other lanes have finished either way.
    }
  }
}

void Fleet::enqueue(Lane& lane, IqBuffer chunk) {
  bool idle = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_space_.wait(lk, [&] {
      return lane.q.size() < kLaneQueueChunks || lane.failed;
    });
    if (lane.failed) return;  // lane died mid-run; drop, don't deadlock
    resident_ += chunk.size();
    resident_peak_ = std::max(resident_peak_, resident_);
    obs_.resident_iq.add(static_cast<std::int64_t>(chunk.size()));
    obs_.resident_iq_high_water.update_max(
        static_cast<std::int64_t>(resident_peak_));
    lane.q.push_back(std::move(chunk));
    ++chunks_dispatched_;
    lane.queue_depth.set(static_cast<std::int64_t>(lane.q.size()));
    idle = !std::exchange(lane.scheduled, true);
  }
  obs_.chunks_dispatched.inc();
  if (idle) pool_->submit([this, &lane] { drain(lane); });
}

void Fleet::drain(Lane& lane) {
  for (;;) {
    IqBuffer chunk;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (lane.q.empty()) {
        lane.scheduled = false;
        return;
      }
      chunk = std::move(lane.q.front());
      lane.q.pop_front();
      lane.queue_depth.set(static_cast<std::int64_t>(lane.q.size()));
    }
    cv_space_.notify_all();
    step(lane, &chunk);
  }
}

void Fleet::step(Lane& lane, const IqBuffer* chunk) {
  // Only this lane's one task touches rx; the snapshot is written under
  // mu_ for concurrent stats() readers.
  const std::size_t prev_retired = lane.snapshot.samples_retired;
  try {
    if (chunk != nullptr) {
      lane.rx.push_chunk(*chunk);
    } else {
      lane.rx.finish();
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      lane.failed = true;
      lane.snapshot = lane.rx.stats();  // counts the packets it emitted
    }
    cv_space_.notify_all();  // release a producer waiting on this lane
    throw;  // delivered by ThreadPool::wait in finish()
  }
  stream::StreamingStats snap = lane.rx.stats();
  std::size_t freed = snap.samples_retired - prev_retired;
  if (chunk == nullptr) {
    // Whatever the final flush could not retire (e.g. a trailing torn
    // packet) leaves the window with the lane; zero the lane's share.
    freed += snap.samples_in - snap.samples_retired;
  }
  std::lock_guard<std::mutex> lk(mu_);
  resident_ -= freed;
  obs_.resident_iq.add(-static_cast<std::int64_t>(freed));
  lane.snapshot = std::move(snap);
}

void Fleet::dispatch_staged(unsigned channel, bool eof) {
  IqBuffer& buf = staging_[channel];
  const std::size_t lanes_per_channel = opt_.sfs.size();
  const std::size_t first = channel * lanes_per_channel;
  std::size_t pos = 0;
  while (buf.size() - pos >= dispatch_samples_ ||
         (eof && pos < buf.size())) {
    const std::size_t take = std::min(dispatch_samples_, buf.size() - pos);
    for (std::size_t l = 0; l < lanes_per_channel; ++l) {
      IqBuffer chunk(buf.begin() + static_cast<std::ptrdiff_t>(pos),
                     buf.begin() + static_cast<std::ptrdiff_t>(pos + take));
      enqueue(*lanes_[first + l], std::move(chunk));
    }
    pos += take;
  }
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(pos));
}

void Fleet::push_wideband(std::span<const cfloat> wideband) {
  if (finished_) {
    throw std::logic_error("Fleet: push_wideband after finish");
  }
  chan_.push(wideband, staging_);
  for (unsigned c = 0; c < opt_.n_channels; ++c) dispatch_staged(c, false);
  obs_.wideband_samples_in.inc(wideband.size());
  std::lock_guard<std::mutex> lk(mu_);
  wideband_samples_in_ += wideband.size();
  wideband_blocks_ = chan_.blocks();
}

void Fleet::finish() {
  if (finished_) return;
  for (unsigned c = 0; c < opt_.n_channels; ++c) dispatch_staged(c, true);
  obs_.partial_tail.inc(chan_.pending_samples());
  {
    std::lock_guard<std::mutex> lk(mu_);
    partial_tail_samples_ = chan_.pending_samples();
    wideband_blocks_ = chan_.blocks();
  }
  // Both rounds run to the end even if a lane threw, so every healthy
  // lane is flushed before the first error is rethrown.
  std::exception_ptr err;
  const auto wait = [&] {
    try {
      pool_->wait();
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  };
  wait();  // every queue drained
  for (const auto& lane : lanes_) {
    if (!lane->failed) pool_->submit([this, &l = *lane] { step(l, nullptr); });
  }
  wait();
  // The pool is idle: the lanes' vectors are the producer's to move.
  for (const auto& lane : lanes_) {
    std::move(lane->packets.begin(), lane->packets.end(),
              std::back_inserter(ledger_));
    lane->packets.clear();
  }
  std::sort(ledger_.begin(), ledger_.end(), ledger_entry_less);
  finished_ = true;
  if (err) std::rethrow_exception(err);
}

const std::vector<LedgerEntry>& Fleet::ledger() const {
  if (!finished_) {
    throw std::logic_error("Fleet: ledger() before finish()");
  }
  return ledger_;
}

FleetStats Fleet::stats() const {
  FleetStats s;
  s.channels = opt_.n_channels;
  s.sfs = opt_.sfs;
  s.lanes = n_workers_;
  s.resident_iq_bound = resident_bound_;
  std::lock_guard<std::mutex> lk(mu_);
  s.resident_iq_samples = resident_;
  s.resident_iq_high_water = resident_peak_;
  s.wideband_samples_in = wideband_samples_in_;
  s.wideband_blocks = wideband_blocks_;
  s.partial_tail_samples = partial_tail_samples_;
  s.chunks_dispatched = chunks_dispatched_;
  s.lane_stats.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    s.lane_stats.emplace_back(lane->info, lane->snapshot);
    s.packets += lane->snapshot.packets_emitted;
  }
  return s;
}

std::size_t run_fleet_pipeline(
    stream::ChunkSource& src, stream::IqRing& ring, Fleet& fleet,
    std::size_t chunk_samples, bool backpressure,
    const std::function<void(std::size_t samples_consumed)>& on_chunk) {
  const std::size_t total = stream::pump(
      src, ring, chunk_samples, backpressure,
      [&fleet](std::span<const cfloat> chunk) { fleet.push_wideband(chunk); },
      on_chunk);
  fleet.finish();
  return total;
}

}  // namespace tnb::fleet
