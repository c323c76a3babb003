#include "netlist/simulator.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace rcarb::netlist {

Simulator::Simulator(const Netlist& netlist)
    : netlist_(netlist),
      topo_(netlist.lut_topo_order()),
      value_(netlist.num_nets(), 0),
      dff_sample_(netlist.num_dffs(), 0) {
  reset();
}

void Simulator::reset() {
  std::fill(value_.begin(), value_.end(), 0);
  for (const Dff& dff : netlist_.dffs()) value_[dff.q] = dff.init ? 1 : 0;
  settle();
}

void Simulator::set_input(NetId net, bool value) {
  RCARB_CHECK(netlist_.driver_kind(net) == DriverKind::kPrimaryInput,
              "set_input on a non-input net");
  value_[net] = value ? 1 : 0;
}

void Simulator::set_input(const std::string& name, bool value) {
  set_input(resolve(name, "unknown input net: "), value);
}

void Simulator::settle() {
  for (std::size_t i : topo_) {
    const Lut& lut = netlist_.luts()[i];
    std::uint64_t row = 0;
    for (std::size_t b = 0; b < lut.inputs.size(); ++b)
      if (value_[lut.inputs[b]]) row |= std::uint64_t{1} << b;
    value_[lut.output] = (lut.mask >> row) & 1u;
  }
  luts_evaluated_ += topo_.size();
  ++full_settles_;
}

void Simulator::clock() {
  // Sample every d first so the update is simultaneous.
  for (std::size_t i = 0; i < netlist_.num_dffs(); ++i)
    dff_sample_[i] = value_[netlist_.dffs()[i].d];
  for (std::size_t i = 0; i < netlist_.num_dffs(); ++i)
    value_[netlist_.dffs()[i].q] = dff_sample_[i];
  settle();
}

void Simulator::poke_register(NetId net, bool value) {
  RCARB_CHECK(netlist_.driver_kind(net) == DriverKind::kDff,
              "poke_register on a non-register net");
  value_[net] = value ? 1 : 0;
  settle();
}

void Simulator::poke_register(const std::string& name, bool value) {
  poke_register(resolve(name, "unknown register net: "), value);
}

bool Simulator::get(NetId net) const {
  RCARB_CHECK(net < netlist_.num_nets(), "net out of range");
  return value_[net] != 0;
}

bool Simulator::get(const std::string& name) const {
  return get(resolve(name, "unknown net: "));
}

NetId Simulator::resolve(const std::string& name, const char* what) const {
  ++name_lookups_;
  const auto net = netlist_.find_net(name);
  RCARB_CHECK(net.has_value(), what + name);
  return *net;
}

}  // namespace rcarb::netlist
