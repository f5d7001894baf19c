// Merged packet ledger of a gateway fleet (tnb::fleet).
//
// Every lane's decoded packets land here, tagged with where they came from
// — (channel, SF). pkt.start_sample is the packet's detected start in
// channel-rate samples, which all lanes share (fs is SF-independent), so
// entries from different channels and SFs order on one common clock.
// Appends are thread-safe (lanes run on fleet workers); finalize() freezes
// the ledger into the canonical deterministic order, sorted by
// (start_sample, channel, sf, payload), which is identical for every lane
// count, chunk size, and scheduling interleaving (DESIGN.md "Gateway
// fleet").
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/metrics.hpp"

namespace tnb::fleet {

struct LedgerEntry {
  unsigned channel = 0;
  unsigned sf = 0;
  sim::DecodedPacket pkt;
};

/// Canonical ledger order: (pkt.start_sample, channel, sf, payload bytes).
bool ledger_entry_less(const LedgerEntry& a, const LedgerEntry& b);

class PacketLedger {
 public:
  /// `metrics` (nullptr = obs::Registry::global(), resolved here) counts
  /// merges as tnb_fleet_ledger_merges_total.
  explicit PacketLedger(obs::Registry* metrics = nullptr);

  PacketLedger(const PacketLedger&) = delete;
  PacketLedger& operator=(const PacketLedger&) = delete;

  /// Thread-safe append from any lane worker. Throws after finalize().
  void append(LedgerEntry entry);

  std::size_t size() const;

  /// Sorts into the canonical order and freezes the ledger. Idempotent;
  /// call once the fleet has wound down (no concurrent appends).
  const std::vector<LedgerEntry>& finalize();

 private:
  mutable std::mutex mu_;
  std::vector<LedgerEntry> entries_;
  bool finalized_ = false;
  obs::CounterRef merges_;
};

}  // namespace tnb::fleet
