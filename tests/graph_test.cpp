#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/families/families.hpp"
#include "graph/serialize.hpp"
#include "graph/walk.hpp"

namespace rdv::graph {
namespace {

Graph square() {
  // 4-cycle with oriented ports.
  GraphBuilder b(4, "square");
  b.connect(0, 0, 1, 1);
  b.connect(1, 0, 2, 1);
  b.connect(2, 0, 3, 1);
  b.connect(3, 0, 0, 1);
  return std::move(b).build();
}

TEST(Builder, BuildsValidGraph) {
  const Graph g = square();
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Builder, RejectsSelfLoop) {
  GraphBuilder b(2, "bad");
  EXPECT_THROW(b.connect(0, 0, 0, 1), std::invalid_argument);
}

TEST(Builder, RejectsPortReuse) {
  GraphBuilder b(3, "bad");
  b.connect(0, 0, 1, 0);
  EXPECT_THROW(b.connect(0, 0, 2, 0), std::invalid_argument);
}

TEST(Builder, RejectsOutOfRangeNode) {
  GraphBuilder b(2, "bad");
  EXPECT_THROW(b.connect(0, 0, 5, 0), std::invalid_argument);
}

TEST(Builder, RejectsPortGap) {
  GraphBuilder b(2, "bad");
  b.connect(0, 1, 1, 0);  // node 0 skips port 0
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(Builder, RejectsIsolatedNode) {
  GraphBuilder b(3, "bad");
  b.connect(0, 0, 1, 0);
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(Builder, RejectsDisconnected) {
  GraphBuilder b(4, "bad");
  b.connect(0, 0, 1, 0);
  b.connect(2, 0, 3, 0);
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(Builder, RejectsParallelEdges) {
  GraphBuilder b(2, "bad");
  b.connect(0, 0, 1, 0);
  b.connect(0, 1, 1, 1);
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(Graph, StepReciprocal) {
  const Graph g = square();
  for (Node v = 0; v < g.size(); ++v) {
    for (Port p = 0; p < g.degree(v); ++p) {
      const Step s = g.step(v, p);
      const Step back = g.step(s.to, s.entry_port);
      EXPECT_EQ(back.to, v);
      EXPECT_EQ(back.entry_port, p);
    }
  }
}

TEST(Graph, BfsDistances) {
  const Graph g = square();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 1u);
  EXPECT_EQ(distance(g, 1, 3), 2u);
}

TEST(Walk, ApplyPorts) {
  const Graph g = square();
  const std::vector<Port> alpha{0, 0, 0};
  const auto end = apply_ports(g, 0, alpha);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, 3u);
}

TEST(Walk, ApplyPortsRejectsBadPort) {
  const Graph g = square();
  const std::vector<Port> alpha{5};
  EXPECT_FALSE(apply_ports(g, 0, alpha).has_value());
}

// Section 2's reverse path pi-bar: the entry ports observed along a walk,
// reversed, are the outgoing ports that walk it backwards.
TEST(Walk, ReversePathReturnsHome) {
  const Graph g = families::random_connected(12, 6, 3);
  const std::vector<Port> alpha{0, 0, 0, 0, 0};  // port 0 always exists
  std::vector<Port> entries;
  Node v = 0;
  for (const Port p : alpha) {
    const Step s = g.step(v, p);
    entries.push_back(s.entry_port);
    v = s.to;
  }
  const auto fwd = apply_ports(g, 0, alpha);
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(*fwd, v);
  const std::vector<Port> reverse(entries.rbegin(), entries.rend());
  const auto back = apply_ports(g, *fwd, reverse);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, 0u);
}

TEST(Serialize, TextRoundTrip) {
  const Graph g = families::random_connected(9, 4, 11);
  const Graph g2 = from_text(to_text(g));
  ASSERT_EQ(g2.size(), g.size());
  for (Node v = 0; v < g.size(); ++v) {
    ASSERT_EQ(g2.degree(v), g.degree(v));
    for (Port p = 0; p < g.degree(v); ++p) {
      EXPECT_EQ(g2.step(v, p), g.step(v, p));
    }
  }
}

TEST(Serialize, DotContainsEdges) {
  const Graph g = square();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("graph"), std::string::npos);
}

TEST(Serialize, FromTextRejectsGarbage) {
  EXPECT_THROW(from_text("nonsense"), std::invalid_argument);
}

}  // namespace
}  // namespace rdv::graph
