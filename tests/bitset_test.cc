#include "common/bitset.h"

#include <cstddef>

#include <gtest/gtest.h>

namespace diva {
namespace {

TEST(BitsetTest, EmptyBitset) {
  Bitset set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.Count(), 0u);
}

// Widths straddling the word boundary: 63 (partial word), 64 (exact),
// 65 (one spillover bit). The tail-masking invariant — bits >= size()
// in the last word stay zero — is what keeps Count() honest.
TEST(BitsetTest, WordBoundaryWidths) {
  for (size_t bits : {size_t{63}, size_t{64}, size_t{65}}) {
    SCOPED_TRACE(bits);
    Bitset set(bits);
    EXPECT_EQ(set.size(), bits);
    EXPECT_EQ(set.Count(), 0u);

    // Set every bit; the count must equal the logical width, not the
    // word capacity.
    for (size_t i = 0; i < bits; ++i) set.Set(i);
    EXPECT_EQ(set.Count(), bits);

    // First/last bit round trips.
    set.Reset(0);
    set.Reset(bits - 1);
    EXPECT_EQ(set.Count(), bits - 2);
    EXPECT_FALSE(set.Test(0));
    EXPECT_FALSE(set.Test(bits - 1));
    EXPECT_TRUE(set.Test(1));
  }
}

}  // namespace
}  // namespace diva
