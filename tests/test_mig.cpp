#include "mig/mig.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "mig/cleanup.hpp"
#include "mig/random.hpp"
#include "mig/simulation.hpp"
#include "mig/views.hpp"
#include "util/rng.hpp"

namespace plim::mig {
namespace {

TEST(Mig, FreshNetworkHasOnlyConstant) {
  Mig m;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.num_gates(), 0u);
  EXPECT_EQ(m.num_pis(), 0u);
  EXPECT_TRUE(m.is_constant(0));
}

TEST(Mig, ConstantSignals) {
  Mig m;
  EXPECT_EQ(m.get_constant(false).index(), 0u);
  EXPECT_EQ(m.get_constant(true), !m.get_constant(false));
}

TEST(Mig, CreatePiAssignsNamesAndIndices) {
  Mig m;
  const auto a = m.create_pi("x");
  const auto b = m.create_pi();
  EXPECT_TRUE(m.is_pi(a.index()));
  EXPECT_EQ(m.pi_index(a.index()), 0u);
  EXPECT_EQ(m.pi_index(b.index()), 1u);
  EXPECT_EQ(m.pi_name(0), "x");
  EXPECT_EQ(m.pi_name(1), "i2");
  EXPECT_EQ(m.num_pis(), 2u);
}

TEST(Mig, MajTrivialRules) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  // Two equal fanins dominate.
  EXPECT_EQ(m.create_maj(a, a, b), a);
  EXPECT_EQ(m.create_maj(b, a, a), a);
  EXPECT_EQ(m.create_maj(a, b, a), a);
  // A complementary pair selects the third operand.
  EXPECT_EQ(m.create_maj(a, !a, c), c);
  EXPECT_EQ(m.create_maj(c, a, !a), c);
  EXPECT_EQ(m.create_maj(a, c, !a), c);
  // Constant folding through the same rules.
  EXPECT_EQ(m.create_maj(m.get_constant(false), m.get_constant(true), c), c);
  EXPECT_EQ(m.create_maj(m.get_constant(false), m.get_constant(false), c),
            m.get_constant(false));
  EXPECT_EQ(m.num_gates(), 0u);
}

TEST(Mig, StructuralHashingSharesCommutativeVariants) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_maj(c, a, b);
  const auto g3 = m.create_maj(b, c, a);
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(g1, g3);
  EXPECT_EQ(m.num_gates(), 1u);
  EXPECT_EQ(m.strash_hits(), 2u);
}

TEST(Mig, HashingDistinguishesComplementPlacement) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_maj(!a, b, c);
  const auto g3 = m.create_maj(a, b, !c);
  EXPECT_NE(g1, g2);
  EXPECT_NE(g1, g3);
  EXPECT_NE(g2, g3);
  EXPECT_EQ(m.num_gates(), 3u);
}

TEST(Mig, FaninsPreserveCreationOrder) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g = m.create_maj(c, a, b);  // deliberately unsorted
  const auto& f = m.fanins(g.index());
  EXPECT_EQ(f[0], c);
  EXPECT_EQ(f[1], a);
  EXPECT_EQ(f[2], b);
}

TEST(Mig, FindMajMatchesWithoutCreating) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  EXPECT_FALSE(m.find_maj(a, b, c).has_value());
  const auto g = m.create_maj(a, b, c);
  const auto found = m.find_maj(b, c, a);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, g);
  EXPECT_EQ(*m.find_maj(a, a, c), a);  // trivial rule, no node needed
  EXPECT_EQ(m.num_gates(), 1u);
}

/// Random fanin triple over the first `bound` nodes.
std::array<Signal, 3> random_triple(std::uint32_t bound, util::Rng& rng) {
  std::array<Signal, 3> t{};
  for (auto& s : t) {
    s = Signal(static_cast<node>(rng.below(bound)), rng.below(2) == 1);
  }
  return t;
}

TEST(Mig, StrashSurvivesManyRehashes) {
  Mig m;
  for (int i = 0; i < 64; ++i) {
    m.create_pi();
  }
  util::Rng rng(7);
  std::vector<std::array<Signal, 3>> created;
  std::vector<Signal> result;
  while (m.num_gates() < 100'000) {
    const auto t = random_triple(m.size(), rng);
    const auto before = m.size();
    const auto g = m.create_maj(t[0], t[1], t[2]);
    if (m.size() > before) {
      created.push_back(t);
      result.push_back(g);
    }
  }
  const auto size = m.size();
  const auto hits = m.strash_hits();
  for (std::size_t i = 0; i < created.size(); ++i) {
    const auto& t = created[i];
    // A rotated operand order must hit the same gate (Ω.C).
    ASSERT_EQ(m.create_maj(t[2], t[0], t[1]), result[i]) << "gate " << i;
  }
  EXPECT_EQ(m.size(), size);
  EXPECT_EQ(m.strash_hits(), hits + created.size());
}

TEST(Mig, FindMajAgreesWithCreateMajAndNeverMutates) {
  Mig fresh;
  const auto k0 = fresh.get_constant(false);
  EXPECT_EQ(fresh.find_maj(k0, k0, !k0), k0);  // empty table, trivial fold
  const auto a = fresh.create_pi();
  const auto b = fresh.create_pi();
  EXPECT_FALSE(fresh.find_maj(a, b, k0).has_value());
  EXPECT_EQ(fresh.size(), 3u);

  Mig m;
  for (int i = 0; i < 8; ++i) {
    m.create_pi();
  }
  util::Rng rng(11);
  std::uint32_t found_count = 0;
  for (int i = 0; i < 20'000; ++i) {
    // A small node pool, so many triples fold or hit existing gates.
    const auto t = random_triple(std::min(m.size(), 32u), rng);
    const auto size = m.size();
    const auto hits = m.strash_hits();
    const auto found = m.find_maj(t[0], t[1], t[2]);
    ASSERT_EQ(m.size(), size);
    ASSERT_EQ(m.strash_hits(), hits);
    const auto g = m.create_maj(t[0], t[1], t[2]);
    if (found) {
      ASSERT_EQ(g, *found) << "triple " << i;
      ASSERT_EQ(m.size(), size);
      ++found_count;
    } else {
      ASSERT_EQ(m.size(), size + 1) << "triple " << i;
    }
  }
  EXPECT_GT(found_count, 1000u);
  EXPECT_GT(m.num_gates(), 1000u);
}

TEST(Mig, AndOrUseConstantZeroFaninOnly) {
  // The paper's starting networks "only have the constant 0 child": AND
  // is ⟨ab0⟩ and OR is the De Morgan form ¬⟨āb̄0⟩ with a complemented
  // output edge.
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto g_and = m.create_and(a, b);
  const auto& f = m.fanins(g_and.index());
  EXPECT_TRUE(m.is_constant(f[2].index()));
  EXPECT_FALSE(f[2].complemented());
  EXPECT_FALSE(g_and.complemented());

  const auto g_or = m.create_or(a, b);
  EXPECT_TRUE(g_or.complemented());
  const auto& fo = m.fanins(g_or.index());
  EXPECT_TRUE(m.is_constant(fo[2].index()));
  EXPECT_FALSE(fo[2].complemented());
  EXPECT_TRUE(fo[0].complemented());
  EXPECT_TRUE(fo[1].complemented());
}

TEST(Mig, DerivedGatesComputeCorrectFunctions) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  m.create_po(m.create_and(a, b), "and");
  m.create_po(m.create_or(a, b), "or");
  m.create_po(m.create_xor(a, b), "xor");
  m.create_po(m.create_nand(a, b), "nand");
  m.create_po(m.create_nor(a, b), "nor");
  m.create_po(m.create_xnor(a, b), "xnor");
  m.create_po(m.create_ite(a, b, c), "ite");
  m.create_po(m.create_xor3(a, b, c), "xor3");
  m.create_po(m.create_maj(a, b, c), "maj");
  const auto fa = m.create_full_adder(a, b, c);
  m.create_po(fa.sum, "sum");
  m.create_po(fa.carry, "carry");

  for (unsigned v = 0; v < 8; ++v) {
    const bool va = v & 1;
    const bool vb = (v >> 1) & 1;
    const bool vc = (v >> 2) & 1;
    const auto out = simulate_vector(m, {va, vb, vc});
    EXPECT_EQ(out[0], va && vb) << v;
    EXPECT_EQ(out[1], va || vb) << v;
    EXPECT_EQ(out[2], va != vb) << v;
    EXPECT_EQ(out[3], !(va && vb)) << v;
    EXPECT_EQ(out[4], !(va || vb)) << v;
    EXPECT_EQ(out[5], va == vb) << v;
    EXPECT_EQ(out[6], va ? vb : vc) << v;
    EXPECT_EQ(out[7], va ^ vb ^ vc) << v;
    EXPECT_EQ(out[8], (va && vb) || (va && vc) || (vb && vc)) << v;
    EXPECT_EQ(out[9], va ^ vb ^ vc) << v;
    EXPECT_EQ(out[10], (va && vb) || (va && vc) || (vb && vc)) << v;
  }
}

TEST(Mig, LevelsAndDepth) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_and(a, b);
  const auto g2 = m.create_or(g1, c);
  m.create_po(g2, "f");
  const auto level = m.levels();
  EXPECT_EQ(level[a.index()], 0u);
  EXPECT_EQ(level[g1.index()], 1u);
  EXPECT_EQ(level[g2.index()], 2u);
  EXPECT_EQ(m.depth(), 2u);
}

TEST(FanoutView, CountsParentsAndPoRefs) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_and(a, b);
  const auto g2 = m.create_or(g1, c);
  const auto g3 = m.create_and(g1, c);
  m.create_po(g2, "f");
  m.create_po(g1, "g");

  const FanoutView fv(m);
  EXPECT_EQ(fv.parents(g1.index()).size(), 2u);
  EXPECT_EQ(fv.num_po_refs(g1.index()), 1u);
  EXPECT_EQ(fv.fanout_count(g1.index()), 3u);
  EXPECT_EQ(fv.fanout_count(g3.index()), 0u);
  EXPECT_EQ(fv.fanout_count(a.index()), 1u);
}

TEST(FanoutView, MatchesBruteForceOnRandomNetworks) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto m = random_mig({8, 300, 12, 30, 30}, seed);
    const FanoutView fv(m);
    m.foreach_node([&](node n) {
      std::vector<node> parents;
      m.foreach_gate([&](node g) {
        const auto& f = m.fanins(g);
        if (std::any_of(f.begin(), f.end(),
                        [&](Signal s) { return s.index() == n; })) {
          parents.push_back(g);
        }
      });
      std::uint32_t po_refs = 0;
      m.foreach_po(
          [&](Signal f, std::uint32_t) { po_refs += f.index() == n ? 1 : 0; });
      const auto got = fv.parents(n);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), parents.begin(),
                             parents.end()))
          << "seed " << seed << " node " << n;
      EXPECT_EQ(fv.num_po_refs(n), po_refs);
      EXPECT_EQ(fv.fanout_count(n), parents.size() + po_refs);
    });
  }
}

TEST(Cleanup, RemovesDanglingGates) {
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  const auto used = m.create_and(a, b);
  m.create_or(a, b);  // dangling
  m.create_po(used, "f");
  EXPECT_EQ(m.num_gates(), 2u);

  const auto cleaned = cleanup_dangling(m);
  EXPECT_EQ(cleaned.num_gates(), 1u);
  EXPECT_EQ(cleaned.num_pis(), 2u);
  EXPECT_EQ(cleaned.num_pos(), 1u);
  EXPECT_EQ(cleaned.pi_name(0), "a");
  EXPECT_EQ(cleaned.po_name(0), "f");

  // Function preserved.
  for (unsigned v = 0; v < 4; ++v) {
    const std::vector<bool> in{(v & 1) != 0, (v & 2) != 0};
    EXPECT_EQ(simulate_vector(m, in)[0], simulate_vector(cleaned, in)[0]);
  }
}

TEST(Cleanup, PreservesComplementedAndConstantPos) {
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  m.create_po(!m.create_and(a, b), "nf");
  m.create_po(m.get_constant(true), "one");
  m.create_po(a, "pass");
  const auto cleaned = cleanup_dangling(m);
  ASSERT_EQ(cleaned.num_pos(), 3u);
  for (unsigned v = 0; v < 4; ++v) {
    const std::vector<bool> in{(v & 1) != 0, (v & 2) != 0};
    EXPECT_EQ(simulate_vector(cleaned, in),
              (std::vector<bool>{!((v & 1) && (v & 2)), true, (v & 1) != 0}));
  }
}

TEST(Cleanup, CompactNetworkIsReturnedUnchanged) {
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  const auto g = m.create_and(a, b);
  EXPECT_EQ(m.create_and(b, a), g);  // one strash hit
  m.create_po(m.create_or(g, a), "f");
  const auto cleaned = cleanup_dangling(m);
  // Nothing dangles, so no rebuild: the copy keeps the strash history.
  EXPECT_EQ(cleaned.strash_hits(), 1u);
  ASSERT_EQ(cleaned.size(), m.size());
  m.foreach_gate(
      [&](node n) { EXPECT_EQ(cleaned.fanins(n), m.fanins(n)); });
}

TEST(Cleanup, LeadsWithPisCreatedAfterGates) {
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  const auto g = m.create_and(a, b);
  const auto c = m.create_pi("c");  // node 4, after a gate
  m.create_po(m.create_or(g, c), "f");
  const auto cleaned = cleanup_dangling(m);
  ASSERT_EQ(cleaned.num_pis(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cleaned.pi_at(i), i + 1);
  }
  EXPECT_EQ(cleaned.pi_name(2), "c");
  EXPECT_EQ(cleaned.num_gates(), m.num_gates());
  for (unsigned v = 0; v < 8; ++v) {
    const std::vector<bool> in{(v & 1) != 0, (v & 2) != 0, (v & 4) != 0};
    EXPECT_EQ(simulate_vector(m, in), simulate_vector(cleaned, in));
  }
}

}  // namespace
}  // namespace plim::mig
