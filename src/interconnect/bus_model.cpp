#include "interconnect/bus_model.h"

#include <algorithm>
#include <map>
#include <set>

namespace salsa {

int BusAllocation::sink_muxes() const {
  int muxes = 0;
  for (const SinkTap& t : taps)
    muxes += std::max(0, static_cast<int>(t.buses.size()) - 1);
  return muxes;
}

int BusAllocation::extra_drivers() const {
  int extra = 0;
  for (const Bus& b : buses)
    extra += std::max(0, static_cast<int>(b.drivers.size()) - 1);
  return extra;
}

BusAllocation bus_allocate(const Binding& b) {
  // Group uses into transmissions: (source, step) -> sinks.
  struct Transmission {
    Endpoint src;
    int step;
    std::vector<Pin> sinks;
  };
  std::map<std::pair<uint32_t, int>, Transmission> tx_map;
  for (const ConnUse& u : connection_uses(b)) {
    if (u.src.kind == Endpoint::Kind::kConstPort) continue;
    Transmission& t = tx_map[{pack(u.src), u.step}];
    t.src = u.src;
    t.step = u.step;
    t.sinks.push_back(u.sink);
  }
  std::vector<Transmission> txs;
  txs.reserve(tx_map.size());
  for (auto& [k, t] : tx_map) {
    (void)k;
    txs.push_back(std::move(t));
  }
  // Allocate sources with many transmissions first: they anchor buses.
  std::map<uint32_t, int> tx_per_src;
  for (const Transmission& t : txs) ++tx_per_src[pack(t.src)];
  std::stable_sort(txs.begin(), txs.end(),
                   [&](const Transmission& a, const Transmission& c) {
                     return tx_per_src[pack(a.src)] >
                            tx_per_src[pack(c.src)];
                   });

  BusAllocation out;
  // Working state per bus: which steps are taken, which sources/sinks known.
  struct BusState {
    std::set<int> busy_steps;
    std::set<uint32_t> driver_keys;
    std::set<uint32_t> sink_keys;
  };
  std::vector<BusState> state;

  auto place = [&](const Transmission& t) {
    int best = -1;
    int best_score = 1 << 30;
    for (size_t bi = 0; bi < state.size(); ++bi) {
      BusState& bs = state[bi];
      if (bs.busy_steps.count(t.step)) continue;
      // Score: new drivers and new sink taps this placement would create.
      int score = bs.driver_keys.count(pack(t.src)) ? 0 : 4;
      for (const Pin& s : t.sinks)
        score += bs.sink_keys.count(pack(s)) ? 0 : 1;
      if (score < best_score) {
        best_score = score;
        best = static_cast<int>(bi);
      }
    }
    // A fresh bus costs one new driver plus all sink taps; open one when
    // nothing existing is cheaper.
    const int fresh_score = 4 + static_cast<int>(t.sinks.size());
    if (best < 0 || best_score > fresh_score) {
      state.emplace_back();
      out.buses.emplace_back();
      best = static_cast<int>(state.size()) - 1;
    }
    BusState& bs = state[static_cast<size_t>(best)];
    Bus& bus = out.buses[static_cast<size_t>(best)];
    bs.busy_steps.insert(t.step);
    if (!bs.driver_keys.count(pack(t.src))) {
      bs.driver_keys.insert(pack(t.src));
      bus.drivers.push_back(t.src);
    }
    int driver_idx = 0;
    while (pack(bus.drivers[static_cast<size_t>(driver_idx)]) !=
           pack(t.src))
      ++driver_idx;
    bus.schedule.emplace_back(driver_idx, t.step);
    for (const Pin& s : t.sinks) bs.sink_keys.insert(pack(s));
    return best;
  };

  // Sink taps accumulate as transmissions are placed.
  std::map<uint32_t, BusAllocation::SinkTap> taps;
  for (const Transmission& t : txs) {
    const int bus = place(t);
    for (const Pin& s : t.sinks) {
      BusAllocation::SinkTap& tap = taps[pack(s)];
      tap.sink = s;
      if (std::find(tap.buses.begin(), tap.buses.end(), bus) ==
          tap.buses.end())
        tap.buses.push_back(bus);
    }
  }
  for (auto& [k, tap] : taps) {
    (void)k;
    std::sort(tap.buses.begin(), tap.buses.end());
    out.taps.push_back(std::move(tap));
  }
  return out;
}

std::vector<std::string> verify_bus_allocation(const Binding& b,
                                               const BusAllocation& alloc) {
  std::vector<std::string> bad;
  // Rebuild (bus, step) -> source key.
  std::map<std::pair<int, int>, uint32_t> bus_at;
  for (size_t bi = 0; bi < alloc.buses.size(); ++bi) {
    const Bus& bus = alloc.buses[bi];
    for (const auto& [driver_idx, step] : bus.schedule) {
      if (driver_idx < 0 ||
          driver_idx >= static_cast<int>(bus.drivers.size())) {
        bad.push_back("bus " + std::to_string(bi) + " has a bad driver index");
        continue;
      }
      const auto key = std::make_pair(static_cast<int>(bi), step);
      const uint32_t src = pack(bus.drivers[static_cast<size_t>(driver_idx)]);
      const auto [it, inserted] = bus_at.emplace(key, src);
      if (!inserted && it->second != src)
        bad.push_back("bus " + std::to_string(bi) +
                      " carries two sources at step " + std::to_string(step));
    }
  }
  std::map<uint32_t, std::vector<int>> taps_of;
  for (const auto& tap : alloc.taps) taps_of[pack(tap.sink)] = tap.buses;

  for (const ConnUse& u : connection_uses(b)) {
    if (u.src.kind == Endpoint::Kind::kConstPort) continue;
    const auto tap_it = taps_of.find(pack(u.sink));
    if (tap_it == taps_of.end()) {
      bad.push_back("a sink pin has no bus taps");
      continue;
    }
    int carriers = 0;
    for (int bus : tap_it->second) {
      const auto it = bus_at.find({bus, u.step});
      if (it != bus_at.end() && it->second == pack(u.src)) ++carriers;
    }
    if (carriers == 0)
      bad.push_back("a connection use at step " + std::to_string(u.step) +
                    " is not carried by any tapped bus");
  }
  return bad;
}

}  // namespace salsa
