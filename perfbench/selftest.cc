// Checks the benchmark's own arithmetic (metrics.h). Build and run with the
// benchmark package:
//
//   cmake -S perfbench -B .bench_build && cmake --build .bench_build
//   .bench_build/perfbench_selftest
//
// Runs every check and exits non-zero if any failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "metrics.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestMedian() {
  EXPECT(Median({}) == 0);
  EXPECT(Median({5}) == 5);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
}

void TestTailLatency() {
  // 1000 samples: p95 is rank 950.
  Tail t = TailLatency(OneTo(1000));
  EXPECT(t.percentile == 95 && t.value == 950 && t.beyond == 50 && t.supported);
  EXPECT(t.samples == 1000);
  // 200 samples: p95 leaves exactly ten.
  t = TailLatency(OneTo(200));
  EXPECT(t.percentile == 95 && t.value == 190 && t.beyond == 10);
  // 199 samples: p95 would leave 9 beyond, so p90 (rank 180) is used.
  t = TailLatency(OneTo(199));
  EXPECT(t.percentile == 90 && t.value == 180 && t.beyond == 19);
  // 100 samples: p90 leaves ten.
  t = TailLatency(OneTo(100));
  EXPECT(t.percentile == 90 && t.value == 90 && t.beyond == 10);
  // 40 samples: p75 leaves ten.
  t = TailLatency(OneTo(40));
  EXPECT(t.percentile == 75 && t.value == 30 && t.beyond == 10);
  // 20 samples: only the median leaves ten.
  t = TailLatency(OneTo(20));
  EXPECT(t.percentile == 50 && t.value == 10 && t.beyond == 10 && t.supported);
  // Fewer than 20: no percentile has ten beyond; the median is returned
  // and flagged.
  t = TailLatency(OneTo(7));
  EXPECT(t.percentile == 50 && t.value == 4 && t.beyond == 3 && !t.supported);
  t = TailLatency({42});
  EXPECT(t.percentile == 50 && t.value == 42 && t.beyond == 0 && !t.supported);
  t = TailLatency({});
  EXPECT(t.samples == 0 && !t.supported && t.value == 0);
  // Ten thousand samples still stop at p95.
  t = TailLatency(OneTo(10000));
  EXPECT(t.percentile == 95 && t.value == 9500 && t.beyond == 500);
}

void TestPercentile() {
  EXPECT(Percentile(OneTo(1000), 99) == 990);
  EXPECT(Percentile(OneTo(999), 99) == 990);  // rank ceil(989.01)
  EXPECT(Percentile(OneTo(7), 50) == 4);
  EXPECT(Percentile({5}, 99) == 5);
  EXPECT(Percentile({}, 99) == 0);
}

void TestBlockTail() {
  // Fewer than two blocks' worth: the pooled rule, one block.
  Tail t = BlockTail(OneTo(1999), 1000, 20);
  EXPECT(t.blocks == 1 && t.percentile == 95 && t.value == 1900 && t.beyond == 99);
  t = BlockTail(OneTo(150), 1000, 20);
  EXPECT(t.blocks == 1 && t.percentile == 90 && t.value == 135);
  t = BlockTail({}, 1000, 20);
  EXPECT(t.blocks == 1 && t.samples == 0 && t.value == 0);
  // Three blocks of 1000, each with 51 high values from rank 950 on: block
  // p95s 50, 10 and 30, and their median 30.
  std::vector<double> in_order;
  for (double level : {50.0, 10.0, 30.0}) {
    for (int i = 0; i < 1000; ++i) in_order.push_back(i < 949 ? 1 : level);
  }
  t = BlockTail(in_order, 1000, 20);
  EXPECT(t.blocks == 3 && t.samples == 3000 && t.percentile == 95 && t.value == 30);
  EXPECT(t.beyond == 50 && t.supported);
  // A burst that fills one block's tail does not move the median, while the
  // pooled p95 lands inside the burst.
  std::vector<double> burst(5000, 1.0);
  for (int i = 0; i < 300; ++i) burst[static_cast<size_t>(i)] = 100;
  EXPECT(BlockTail(burst, 1000, 20).value == 1 && TailLatency(burst).value == 100);
  // The block count is capped; blocks of unequal size (2500 samples in two
  // blocks of 1250) still read p95 in each.
  t = BlockTail(OneTo(100000), 1000, 20);
  EXPECT(t.blocks == 20 && t.percentile == 95 && t.beyond == 250);
  t = BlockTail(OneTo(2500), 1000, 20);
  EXPECT(t.blocks == 2 && t.percentile == 95 && t.beyond == 62);
  // Samples come back ordered by completion time, ties in input order.
  const std::vector<double> ordered =
      InCompletionOrder({1, 2, 3, 4}, std::vector<int64_t>{30, 10, 30, 20});
  EXPECT((ordered == std::vector<double>{2, 4, 1, 3}));
}

void TestRatio() {
  EXPECT(Ratio(1, 4) == 0.25);
  EXPECT(Ratio(5, 0) == 0);
  EXPECT(Ratio(0, 0) == 0);
  EXPECT(!std::isnan(Ratio(0, 0)) && !std::isinf(Ratio(3, 0)));
  EXPECT(Ratio(0, 7) == 0);
}

Span S(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.stmt = 1;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTimes() {
  // Sequential children: root 0..100, children 10..30 and 40..70.
  std::vector<int64_t> self =
      SelfTimes({S(1, 0, 0, 100), S(2, 1, 10, 30), S(3, 1, 40, 70)});
  EXPECT(self[0] == 50 && self[1] == 20 && self[2] == 30);

  // Nested: a grandchild counts against its parent only.
  self = SelfTimes({S(1, 0, 0, 100), S(2, 1, 10, 60), S(3, 2, 20, 50)});
  EXPECT(self[0] == 50 && self[1] == 20 && self[2] == 30);

  // Overlapping children: their union (10..60) is subtracted once.
  self = SelfTimes({S(1, 0, 0, 100), S(2, 1, 10, 40), S(3, 1, 30, 60)});
  EXPECT(self[0] == 50 && self[1] == 30 && self[2] == 30);

  // A child contained in a sibling, in any input order.
  self = SelfTimes({S(3, 1, 20, 30), S(1, 0, 0, 100), S(2, 1, 10, 60)});
  EXPECT(self[1] == 50 && self[2] == 50 && self[0] == 10);

  // A child running past the parent is clipped to the parent's interval.
  self = SelfTimes({S(1, 0, 0, 100), S(2, 1, 80, 150)});
  EXPECT(self[0] == 80 && self[1] == 70);

  // Adjacent children touching at one instant.
  self = SelfTimes({S(1, 0, 0, 100), S(2, 1, 0, 50), S(3, 1, 50, 100)});
  EXPECT(self[0] == 0);

  // Sequential layers: the self times of a fully nested tree add up to the
  // root's wall time.
  std::vector<Span> tree = {S(1, 0, 0, 1000), S(2, 1, 5, 100), S(3, 1, 100, 300),
                            S(4, 1, 300, 650), S(5, 1, 660, 990)};
  self = SelfTimes(tree);
  int64_t total = 0;
  for (int64_t v : self) total += v;
  EXPECT(total == 1000);

  // A span whose parent is missing is treated as a root.
  self = SelfTimes({S(7, 99, 0, 10)});
  EXPECT(self[0] == 10);
}

void TestWriteModel() {
  WriteModel model(400, 12345);
  model.Inserted(7);
  model.Updated(5, 1);
  model.Updated(-3, 1);
  EXPECT(model.rows() == 401 && model.amount_sum() == 12354);
  EXPECT(model.Matches(401, 12354.0));
  EXPECT(!model.Matches(400, 12354.0));
  EXPECT(!model.Matches(401, 12355.0));

  // An update that matched no row leaves the sum alone.
  model.Updated(100, 0);
  EXPECT(model.amount_sum() == 12354);

  // Per-client models merge into the base; the result does not depend on
  // the order writes from different clients were applied in.
  WriteModel base(10, 100);
  WriteModel a(0, 0);
  WriteModel b(0, 0);
  a.Inserted(4);
  b.Updated(6, 1);
  a.Updated(-2, 1);
  base.Merge(b);
  base.Merge(a);
  EXPECT(base.rows() == 11 && base.amount_sum() == 108);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestMedian();
  perfbench::TestTailLatency();
  perfbench::TestPercentile();
  perfbench::TestBlockTail();
  perfbench::TestRatio();
  perfbench::TestSelfTimes();
  perfbench::TestWriteModel();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
