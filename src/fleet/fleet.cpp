#include "fleet/fleet.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/json.hpp"

namespace tnb::fleet {

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
  w.field("steals", steals);
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
      chan_(opt_.n_channels),
      ledger_(opt_.receiver.metrics) {
  base_.validate();
  if (opt_.sfs.empty()) {
    throw std::invalid_argument("FleetOptions: sfs must not be empty");
  }
  unsigned max_sf = 0;
  for (unsigned sf : opt_.sfs) max_sf = std::max(max_sf, sf);
  dispatch_samples_ = opt_.dispatch_samples != 0
                          ? opt_.dispatch_samples
                          : 16 * (std::size_t{1} << max_sf) * base_.osf;
  opt_.lane_queue_chunks = std::max<std::size_t>(opt_.lane_queue_chunks, 1);
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
      sopt.keep_packets = false;  // the ledger owns the packets
      auto lane = std::make_unique<Lane>(p, ropt, sopt);
      lane->info.channel = c;
      lane->info.sf = sf;
      lane->info.window_samples = lane->rx.options().window_symbols * p.sps();
      lane->rx.set_packet_callback(
          [this, c, sf](const sim::DecodedPacket& pkt) {
            ledger_.append(LedgerEntry{c, sf, pkt});
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
  // (StreamingReceiver invariant) and the queue holds lane_queue_chunks
  // chunks plus the one in flight.
  resident_bound_ = 0;
  for (const auto& lane : lanes_) {
    resident_bound_ += 2 * lane->info.window_samples +
                       (opt_.lane_queue_chunks + 1) * dispatch_samples_;
  }

  n_workers_ = static_cast<unsigned>(std::clamp<std::size_t>(
      static_cast<std::size_t>(common::resolve_jobs(opt_.lanes)), 1,
      lanes_.size()));
  steals_.assign(n_workers_, 0);
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
    obs_.steals.reserve(n_workers_);
    for (unsigned wkr = 0; wkr < n_workers_; ++wkr) {
      obs_.steals.push_back(
          reg->counter("tnb_fleet_steals_total", "Lanes run by a foreign worker",
                       {{"worker", std::to_string(wkr)}}));
    }
  }

  pool_ = std::make_unique<common::ThreadPool>(static_cast<int>(n_workers_));
  for (unsigned wkr = 0; wkr < n_workers_; ++wkr) {
    pool_->submit([this, wkr] { worker_loop(wkr); });
  }
}

Fleet::~Fleet() {
  if (!finished_) {
    try {
      finish();
    } catch (...) {
      // A lane's decode exception was already delivered (or is undeliverable
      // from a destructor); the workers have wound down either way.
    }
  }
}

void Fleet::resident_add(std::size_t n) {
  if (n == 0) return;
  const std::size_t now =
      resident_.fetch_add(n, std::memory_order_relaxed) + n;
  std::size_t cur = resident_peak_.load(std::memory_order_relaxed);
  while (cur < now && !resident_peak_.compare_exchange_weak(
                          cur, now, std::memory_order_relaxed)) {
  }
  obs_.resident_iq.add(static_cast<std::int64_t>(n));
  obs_.resident_iq_high_water.update_max(static_cast<std::int64_t>(now));
}

void Fleet::resident_sub(std::size_t n) {
  if (n == 0) return;
  resident_.fetch_sub(n, std::memory_order_relaxed);
  obs_.resident_iq.add(-static_cast<std::int64_t>(n));
}

void Fleet::enqueue(Lane& lane, IqBuffer chunk) {
  const std::size_t n = chunk.size();
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_space_.wait(lk, [&] {
      return lane.q.size() < opt_.lane_queue_chunks || lane.finished;
    });
    if (lane.finished) return;  // lane died mid-run; drop, don't deadlock
    lane.q.push_back(std::move(chunk));
    ++chunks_dispatched_;
    lane.queue_depth.set(static_cast<std::int64_t>(lane.q.size()));
  }
  obs_.chunks_dispatched.inc();
  resident_add(n);
  cv_work_.notify_one();
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
    done_ = true;
  }
  cv_work_.notify_all();
  pool_->wait();  // rethrows the first lane exception, if any
  ledger_.finalize();
  finished_ = true;
}

std::size_t Fleet::consume(stream::ChunkSource& src,
                           std::size_t chunk_samples) {
  IqBuffer chunk;
  std::size_t total = 0;
  while (src.next(chunk, chunk_samples) > 0) {
    push_wideband(chunk);
    total += chunk.size();
  }
  finish();
  return total;
}

const std::vector<LedgerEntry>& Fleet::ledger() {
  if (!finished_) {
    throw std::logic_error("Fleet: ledger() before finish()");
  }
  return ledger_.finalize();
}

FleetStats Fleet::stats() const {
  FleetStats s;
  s.channels = opt_.n_channels;
  s.sfs = opt_.sfs;
  s.lanes = n_workers_;
  s.resident_iq_samples = resident_.load(std::memory_order_relaxed);
  s.resident_iq_high_water = resident_peak_.load(std::memory_order_relaxed);
  s.resident_iq_bound = resident_bound_;
  s.packets = ledger_.size();
  std::lock_guard<std::mutex> lk(mu_);
  s.wideband_samples_in = wideband_samples_in_;
  s.wideband_blocks = wideband_blocks_;
  s.partial_tail_samples = partial_tail_samples_;
  s.chunks_dispatched = chunks_dispatched_;
  for (std::size_t st : steals_) s.steals += st;
  s.lane_stats.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    s.lane_stats.emplace_back(lane->info, lane->snapshot);
  }
  return s;
}

bool Fleet::all_lanes_finished() const {
  for (const auto& lane : lanes_) {
    if (!lane->finished) return false;
  }
  return true;
}

Fleet::Lane* Fleet::pick_lane(unsigned worker, bool* stolen) {
  const auto runnable = [this](const Lane& lane) {
    return !lane.claimed && !lane.finished &&
           (!lane.q.empty() || done_);
  };
  for (std::size_t i = worker; i < lanes_.size(); i += n_workers_) {
    if (runnable(*lanes_[i])) {
      *stolen = false;
      return lanes_[i].get();
    }
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (i % n_workers_ != worker && runnable(*lanes_[i])) {
      *stolen = true;
      return lanes_[i].get();
    }
  }
  return nullptr;
}

void Fleet::worker_loop(unsigned worker) {
  for (;;) {
    Lane* lane = nullptr;
    bool stolen = false;
    IqBuffer chunk;
    bool do_finish = false;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] {
        lane = pick_lane(worker, &stolen);
        return lane != nullptr || (done_ && all_lanes_finished());
      });
      if (lane == nullptr) break;  // every lane finished: wind down
      if (stolen) {
        ++steals_[worker];
        if (worker < obs_.steals.size()) obs_.steals[worker].inc();
      }
      lane->claimed = true;
      if (!lane->q.empty()) {
        chunk = std::move(lane->q.front());
        lane->q.pop_front();
        lane->queue_depth.set(static_cast<std::int64_t>(lane->q.size()));
      } else {
        do_finish = true;  // done_ and drained: run the lane's finish()
      }
    }
    cv_space_.notify_all();
    // `claimed` gives this worker exclusive, mutex-ordered access to the
    // lane's receiver and snapshot until it is released below.
    const std::size_t prev_retired = lane->snapshot.samples_retired;
    try {
      if (do_finish) {
        lane->rx.finish();
      } else {
        lane->rx.push_chunk(chunk);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      lane->finished = true;  // release everyone waiting on this lane
      lane->claimed = false;
      cv_work_.notify_all();
      cv_space_.notify_all();
      throw;  // delivered by ThreadPool::wait in finish()
    }
    stream::StreamingStats snap = lane->rx.stats();
    std::size_t freed = snap.samples_retired - prev_retired;
    if (do_finish) {
      // Whatever the final flush could not retire (e.g. a trailing torn
      // packet) leaves the window with the lane; zero the lane's share.
      freed += snap.samples_in - snap.samples_retired;
    }
    resident_sub(freed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      lane->snapshot = std::move(snap);
      lane->claimed = false;
      if (do_finish) lane->finished = true;
    }
    cv_work_.notify_all();
  }
  cv_work_.notify_all();  // wake siblings so they observe the wind-down
}

std::size_t run_fleet_pipeline(
    stream::ChunkSource& src, stream::IqRing& ring, Fleet& fleet,
    std::size_t chunk_samples, bool backpressure,
    const std::function<void(std::size_t samples_consumed)>& on_chunk) {
  std::thread producer([&] {
    IqBuffer chunk;
    while (src.next(chunk, chunk_samples) > 0) {
      if (backpressure) {
        ring.push(chunk);
      } else {
        ring.try_push(chunk);
      }
    }
    ring.close();
  });
  IqBuffer chunk;
  std::size_t total = 0;
  while (ring.pop(chunk, chunk_samples) > 0) {
    fleet.push_wideband(chunk);
    total += chunk.size();
    if (on_chunk) on_chunk(total);
  }
  producer.join();
  fleet.finish();
  return total;
}

}  // namespace tnb::fleet
