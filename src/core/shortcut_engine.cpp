#include "core/shortcut_engine.hpp"

#include <utility>

#include "core/engine.hpp"
#include "graph/algorithms.hpp"

namespace mns {

std::string builder_name_for(const StructuralCertificate& cert) {
  struct Visitor {
    std::string operator()(const UniformCertificate& u) const {
      switch (u.kind) {
        case UniformCertificate::Kind::kGreedy:
          return "uniform.greedy";
        case UniformCertificate::Kind::kSteiner:
          return "uniform.steiner";
        case UniformCertificate::Kind::kAncestor:
          return "uniform.ancestor";
      }
      throw InvariantViolation("builder_name_for: unknown uniform kind");
    }
    std::string operator()(const TreewidthCertificate&) const {
      return "treewidth";
    }
    std::string operator()(const ApexCertificate&) const { return "apex"; }
    std::string operator()(const CliqueSumCertificate&) const {
      return "cliquesum";
    }
  };
  return std::visit(Visitor{}, cert);
}

TreeFactory center_tree_factory(unsigned seed) {
  return [seed](const Graph& g) {
    Rng rng(seed);
    VertexId c = approximate_center(g, rng);
    return RootedTree::from_bfs(bfs(g, c), c);
  };
}

BuildResult ShortcutEngine::build(const Graph& g, const RootedTree& tree,
                                  const Partition& parts,
                                  const StructuralCertificate& cert) const {
  BuildResult out;
  out.shortcut = build_shortcut(g, tree, parts, cert);
  out.metrics = measure_shortcut(g, tree, parts, out.shortcut);
  return out;
}

Shortcut ShortcutEngine::build_shortcut(const Graph& g, const RootedTree& tree,
                                        const Partition& parts,
                                        const StructuralCertificate& cert) const {
  require(parts.part_of_all().size() ==
              static_cast<std::size_t>(g.num_vertices()),
          "ShortcutEngine: partition size != vertex count");
  struct Construct {
    const Graph& g;
    const RootedTree& t;
    const Partition& p;
    Shortcut operator()(const UniformCertificate& c) const {
      switch (c.kind) {
        case UniformCertificate::Kind::kGreedy:
          return build_greedy_shortcut(g, t, p);
        case UniformCertificate::Kind::kSteiner:
          return build_steiner_shortcut(g, t, p);
        case UniformCertificate::Kind::kAncestor:
          return build_ancestor_shortcut(g, t, p, c.levels);
      }
      throw InvariantViolation("ShortcutEngine: unknown uniform kind");
    }
    Shortcut operator()(const TreewidthCertificate& c) const {
      return build_treewidth_shortcut(g, t, p, c.decomposition);
    }
    Shortcut operator()(const ApexCertificate& c) const {
      return build_apex_shortcut(g, t, p, c.apices, make_oracle(c.inner));
    }
    Shortcut operator()(const CliqueSumCertificate& c) const {
      CliqueSumShortcutOptions opt;
      opt.fold = c.fold;
      opt.local_oracle = c.apex_aware
                             ? make_apex_oracle(make_oracle(c.local_oracle))
                             : make_oracle(c.local_oracle);
      opt.bag_apices = c.bag_apices;
      return build_cliquesum_shortcut(g, t, p, c.decomposition,
                                      std::move(opt));
    }
  };
  Shortcut sc = std::visit(Construct{g, tree, parts}, cert);
  std::string err = validate_tree_restricted(g, tree, sc);
  if (!err.empty())
    throw InvariantViolation("ShortcutEngine: builder '" +
                             builder_name_for(cert) +
                             "' produced an invalid shortcut: " + err);
  return sc;
}

const ShortcutEngine& ShortcutEngine::global() {
  static const ShortcutEngine engine;
  return engine;
}

}  // namespace mns
