#include "storage/storage.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace gbc::storage {

namespace {
// Bandwidths are quoted in "MB/s" like the paper; internally one MB is one
// MiB so checkpoint-image sizes and rates use the same unit.
constexpr double kBytesPerMb = static_cast<double>(kMiB);
}  // namespace

StorageSystem::StorageSystem(sim::Engine& eng, StorageConfig cfg)
    : eng_(eng), cfg_(cfg) {}

sim::Time StorageSystem::busy_time() const noexcept {
  return busy_accum_ + (flows_.empty() ? 0 : eng_.now() - busy_since_);
}

double StorageSystem::per_flow_rate_bps() const {
  const int n = active_flows();
  return cfg_.per_client_mbps(n) * kBytesPerMb;
}

void StorageSystem::recompute_rates() {
  const int n = active_flows();
  if (n == 0) return;
  const std::size_t nf = flows_.size();
  if (!striped()) {
    // Pooled model: symmetric fair share of the aggregate.
    const double share = cfg_.per_client_mbps(n) * kBytesPerMb;
    for (std::size_t i = 0; i < nf; ++i) rate_bps_[i] = share * scale_[i];
    return;
  }
  // Striped model: max-min fair allocation (progressive filling) subject to
  // per-server capacities and the per-client cap. A flow spreads its rate
  // evenly over its stripe servers.
  const double total = cfg_.aggregate_mbps(n) * kBytesPerMb;
  const double server_cap = total / cfg_.num_servers;
  std::vector<double> server_load(cfg_.num_servers, 0.0);
  std::vector<std::size_t> unfrozen(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    rate_bps_[i] = 0;
    unfrozen[i] = i;
  }
  const auto client_cap = [&](std::size_t i) {
    return cfg_.per_client_cap_mbps * kBytesPerMb * scale_[i];
  };
  constexpr double kEps = 1e-6;
  while (!unfrozen.empty()) {
    std::vector<double> slope(cfg_.num_servers, 0.0);
    for (std::size_t i : unfrozen) {
      const std::vector<int>& servers = flows_[i]->servers;
      for (int s : servers) {
        slope[s] += 1.0 / static_cast<double>(servers.size());
      }
    }
    double step = std::numeric_limits<double>::infinity();
    for (int s = 0; s < cfg_.num_servers; ++s) {
      if (slope[s] > 0) {
        step = std::min(step, (server_cap - server_load[s]) / slope[s]);
      }
    }
    for (std::size_t i : unfrozen) {
      step = std::min(step, client_cap(i) - rate_bps_[i]);
    }
    if (!std::isfinite(step) || step < 0) break;
    for (std::size_t i : unfrozen) {
      rate_bps_[i] += step;
      const std::vector<int>& servers = flows_[i]->servers;
      for (int s : servers) {
        server_load[s] += step / static_cast<double>(servers.size());
      }
    }
    // Freeze flows at their client cap or touching a saturated server.
    std::vector<std::size_t> still;
    for (std::size_t i : unfrozen) {
      bool frozen = rate_bps_[i] >= client_cap(i) - kEps;
      for (int s : flows_[i]->servers) {
        if (server_load[s] >= server_cap - kEps) frozen = true;
      }
      if (!frozen) still.push_back(i);
    }
    if (still.size() == unfrozen.size()) break;  // numerical safety
    unfrozen.swap(still);
  }
}

void StorageSystem::advance() {
  const sim::Time now = eng_.now();
  const sim::Time dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0 || flows_.empty()) return;
  const double seconds = sim::to_seconds(dt);
  const std::size_t nf = flows_.size();
  for (std::size_t i = 0; i < nf; ++i) remaining_[i] -= rate_bps_[i] * seconds;
}

void StorageSystem::reschedule() {
  ++generation_;
  if (flows_.empty()) return;
  recompute_rates();
  double earliest_s = -1.0;
  const std::size_t nf = flows_.size();
  for (std::size_t i = 0; i < nf; ++i) {
    const double left = std::max(remaining_[i], 0.0);
    const double secs = rate_bps_[i] > 0 ? left / rate_bps_[i] : 0.0;
    if (earliest_s < 0 || secs < earliest_s) earliest_s = secs;
  }
  const auto dt = static_cast<sim::Time>(
      std::ceil(earliest_s * static_cast<double>(sim::kSecond)));
  const std::uint64_t gen = generation_;
  eng_.schedule_after(std::max<sim::Time>(dt, 0),
                      [this, gen] { on_completion_event(gen); });
}

void StorageSystem::on_completion_event(std::uint64_t generation) {
  if (generation != generation_) return;  // superseded by a set change
  advance();
  // Wake finished flows in arrival order and compact the rest in place.
  const std::size_t nf = flows_.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    if (remaining_[i] <= 0.5) {
      flows_[i]->done = true;
      flows_[i]->cv.notify_all();
      ++completed_flows_;
      continue;
    }
    if (kept != i) {
      remaining_[kept] = remaining_[i];
      rate_bps_[kept] = rate_bps_[i];
      scale_[kept] = scale_[i];
      flows_[kept] = std::move(flows_[i]);
    }
    ++kept;
  }
  remaining_.resize(kept);
  rate_bps_.resize(kept);
  scale_.resize(kept);
  flows_.resize(kept);
  if (kept < nf && flows_.empty()) busy_accum_ += eng_.now() - busy_since_;
  reschedule();
}

sim::Task<void> StorageSystem::transfer(Bytes size, bool read) {
  if (size <= 0) co_return;
  bytes_transferred_ += size;
  advance();
  auto flow = std::make_shared<Flow>(eng_);
  if (striped()) {
    for (int k = 0; k < cfg_.stripe_count; ++k) {
      flow->servers.push_back((next_stripe_offset_ + k) % cfg_.num_servers);
    }
    next_stripe_offset_ = (next_stripe_offset_ + 1) % cfg_.num_servers;
  }
  if (flows_.empty()) busy_since_ = eng_.now();
  remaining_.push_back(static_cast<double>(size));
  rate_bps_.push_back(0.0);
  scale_.push_back(read ? cfg_.read_factor : 1.0);
  flows_.push_back(flow);
  peak_concurrency_ = std::max(peak_concurrency_, active_flows());
  reschedule();
  while (!flow->done) co_await flow->cv.wait();
}

}  // namespace gbc::storage
