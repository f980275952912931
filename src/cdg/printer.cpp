#include "cdg/printer.h"

#include <sstream>

namespace parsec::cdg {

std::string render_role(const Network& net, int role) {
  const Grammar& g = net.grammar();
  std::string out = "{";
  bool first = true;
  for (const RoleValue& rv : net.alive_values(role)) {
    if (!first) out += ", ";
    first = false;
    out += to_string(g, rv);
  }
  out += '}';
  return out;
}

std::string render_domains(const Network& net) {
  const Grammar& g = net.grammar();
  std::ostringstream os;
  for (WordPos w = 1; w <= net.n(); ++w) {
    os << "word " << w << " \"" << net.sentence().word_at(w) << "\" ["
       << g.category_name(net.sentence().cat_at(w)) << "]\n";
    for (RoleId r = 0; r < g.num_roles(); ++r) {
      os << "  " << g.role_name(r) << ": "
         << render_role(net, net.role_index(w, r)) << '\n';
    }
  }
  return os.str();
}

std::string render_arc_matrix(const Network& net, int role_a, int role_b) {
  const Grammar& g = net.grammar();
  if (role_a > role_b) std::swap(role_a, role_b);
  const auto a_vals = net.alive_values(role_a);
  const auto b_vals = net.alive_values(role_b);
  const auto& idx = net.indexer();
  std::ostringstream os;
  os << "arc " << g.role_name(net.role_id_of(role_a)) << "(word "
     << net.word_of_role(role_a) << ") x " << g.role_name(net.role_id_of(role_b))
     << "(word " << net.word_of_role(role_b) << ")\n";
  // Column headers.
  std::size_t row_hdr_width = 0;
  std::vector<std::string> row_names;
  for (const RoleValue& rv : a_vals) {
    row_names.push_back(to_string(g, rv));
    row_hdr_width = std::max(row_hdr_width, row_names.back().size());
  }
  os << std::string(row_hdr_width, ' ');
  std::vector<std::string> col_names;
  for (const RoleValue& rv : b_vals) {
    col_names.push_back(to_string(g, rv));
    os << ' ' << col_names.back();
  }
  os << '\n';
  for (std::size_t i = 0; i < a_vals.size(); ++i) {
    os << row_names[i]
       << std::string(row_hdr_width - row_names[i].size(), ' ');
    for (std::size_t j = 0; j < b_vals.size(); ++j) {
      const bool bit = net.arc_allows(role_a, idx.encode(a_vals[i]), role_b,
                                      idx.encode(b_vals[j]));
      os << ' ' << std::string(col_names[j].size() - 1, ' ')
         << (bit ? '1' : '0');
    }
    os << '\n';
  }
  return os.str();
}

std::string render_summary(const Network& net) {
  std::ostringstream os;
  os << "n=" << net.n() << " roles=" << net.num_roles()
     << " D=" << net.domain_size() << " alive=" << net.total_alive()
     << " arc_ones=" << net.arc_ones();
  return os.str();
}

}  // namespace parsec::cdg
