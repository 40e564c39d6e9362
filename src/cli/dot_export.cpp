#include "cli/dot_export.hpp"

#include <map>
#include <sstream>

namespace snooze::cli {

std::string hierarchy_dot(core::SnoozeSystem& system) {
  std::ostringstream out;
  out << "digraph snooze {\n";
  out << "  rankdir=TB;\n";
  out << "  node [shape=box, fontsize=10];\n";

  std::map<net::Address, std::string> lc_names;
  for (const auto& lc : system.local_controllers()) {
    lc_names[lc->address()] = lc->name();
  }

  core::GroupManager* gl = system.leader();
  const std::string gl_node = gl != nullptr ? gl->name() : "no_gl";
  if (gl != nullptr) {
    out << "  \"" << gl_node << "\" [label=\"GL " << gl->name() << "\\n"
        << gl->leader()->known_gm_count() << " GMs\", style=filled, fillcolor=gold];\n";
  } else {
    out << "  \"no_gl\" [label=\"no GL elected\", style=dashed];\n";
  }

  for (const auto& ep : system.entry_points()) {
    if (!ep->alive()) continue;
    out << "  \"" << ep->name() << "\" [label=\"EP " << ep->name()
        << "\", style=filled, fillcolor=lightblue];\n";
    if (ep->known_gl() != net::kNullAddress && gl != nullptr) {
      out << "  \"" << ep->name() << "\" -> \"" << gl_node << "\";\n";
    }
  }

  for (const auto& gm : system.group_managers()) {
    if (!gm->alive() || gm->is_leader()) continue;
    out << "  \"" << gm->name() << "\" [label=\"GM " << gm->name() << "\\n"
        << gm->lc_count() << " LCs, " << gm->vm_count()
        << " VMs\", style=filled, fillcolor=palegreen];\n";
    if (gl != nullptr) {
      out << "  \"" << gl_node << "\" -> \"" << gm->name() << "\";\n";
    }
    for (const core::LcInfo& info : gm->lc_infos()) {
      const auto name_it = lc_names.find(info.lc);
      const std::string lc_label =
          name_it != lc_names.end() ? name_it->second : std::to_string(info.lc);
      out << "  \"" << lc_label << "\" [label=\"" << lc_label << "\\n"
          << info.vm_count << " VMs"
          << (info.powered_on ? "" : " (low power)") << "\""
          << (info.powered_on ? "" : ", style=filled, fillcolor=gray80") << "];\n";
      out << "  \"" << gm->name() << "\" -> \"" << lc_label << "\";\n";
    }
  }

  // Unassigned (still-joining) LCs float free at the bottom.
  for (const auto& lc : system.local_controllers()) {
    if (!lc->alive() || lc->assigned()) continue;
    out << "  \"" << lc->name() << "\" [label=\"" << lc->name()
        << "\\n(joining)\", style=dotted];\n";
  }

  out << "}\n";
  return out.str();
}

}  // namespace snooze::cli
