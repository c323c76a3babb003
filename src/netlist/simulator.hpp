// Cycle-accurate netlist simulation.
//
// Two-phase semantics: settle() propagates combinational logic with the
// current primary inputs and register outputs (so Mealy outputs can be read
// the same cycle), clock() then latches every DFF simultaneously.
//
// Every settle() re-evaluates every LUT in topological order.  This is the
// independent oracle the wide-lane engine (wide_simulator.hpp) is tested
// against, so it keeps the one strategy that is correct by construction:
// no dirty tracking, nothing that can miss a LUT.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace rcarb::netlist {

/// Simulates a Netlist cycle by cycle, one scenario at a time.
class Simulator {
 public:
  /// Captures the topological order; the netlist must outlive the simulator
  /// and must not be mutated afterwards.
  explicit Simulator(const Netlist& netlist);

  /// Returns all DFFs to their init values and re-settles.
  void reset();

  /// Sets a primary input (takes effect on the next settle()).
  void set_input(NetId net, bool value);
  void set_input(const std::string& name, bool value);

  /// Propagates combinational logic to a fixed point.
  void settle();

  /// Rising clock edge: latches d into every q, then settles.
  void clock();

  /// Fault injection: overwrites a DFF's q value (an SEU in the register)
  /// and re-settles so downstream logic sees the corrupted state.
  void poke_register(NetId net, bool value);
  void poke_register(const std::string& name, bool value);

  [[nodiscard]] bool get(NetId net) const;
  [[nodiscard]] bool get(const std::string& name) const;

  // ---- Instrumentation. ----
  /// Name-based lookups (string-keyed set_input/get/poke) since
  /// construction.  Per-cycle simulation loops must resolve names to NetIds
  /// once, outside the loop — the regression tests pin this counter flat
  /// across the cycle loop.
  [[nodiscard]] std::uint64_t name_lookups() const { return name_lookups_; }
  /// LUT evaluations since construction: num_luts() per settle.
  [[nodiscard]] std::uint64_t luts_evaluated() const {
    return luts_evaluated_;
  }
  /// Topo passes (settles) performed.
  [[nodiscard]] std::uint64_t full_settles() const { return full_settles_; }

 private:
  [[nodiscard]] NetId resolve(const std::string& name,
                              const char* what) const;

  const Netlist& netlist_;
  std::vector<std::size_t> topo_;
  std::vector<char> value_;       // per net
  std::vector<char> dff_sample_;  // clock() staging buffer (hoisted)

  mutable std::uint64_t name_lookups_ = 0;
  std::uint64_t luts_evaluated_ = 0;
  std::uint64_t full_settles_ = 0;
};

}  // namespace rcarb::netlist
