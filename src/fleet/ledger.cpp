#include "fleet/ledger.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace tnb::fleet {

bool ledger_entry_less(const LedgerEntry& a, const LedgerEntry& b) {
  return std::tie(a.pkt.start_sample, a.channel, a.sf, a.pkt.payload) <
         std::tie(b.pkt.start_sample, b.channel, b.sf, b.pkt.payload);
}

PacketLedger::PacketLedger(obs::Registry* metrics) {
  obs::Registry* reg = obs::resolve(metrics);
  if (reg != nullptr) {
    merges_ = reg->counter("tnb_fleet_ledger_merges_total",
                           "Packets merged into the fleet ledger");
  }
}

void PacketLedger::append(LedgerEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) {
    throw std::logic_error("PacketLedger: append after finalize");
  }
  entries_.push_back(std::move(entry));
  merges_.inc();
}

std::size_t PacketLedger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

const std::vector<LedgerEntry>& PacketLedger::finalize() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!finalized_) {
    std::sort(entries_.begin(), entries_.end(), ledger_entry_less);
    finalized_ = true;
  }
  return entries_;
}

}  // namespace tnb::fleet
