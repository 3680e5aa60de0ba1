// TreeDriver's contract, pinned over fake handles that record every call:
// levels run deepest-first, every begin_sync() of a level comes before any
// end_sync(), down nodes are skipped, the root's round (its pump and clock
// tick) comes last, then the levels below the root take their pushes
// shallowest first, and a failure is rethrown only after every end_sync()
// still owed has run (or, when failed rounds may be lost, not at all).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "topology/tree_driver.h"

namespace fbdr::topology {
namespace {

using Calls = std::vector<std::string>;

class FakeHandle final : public NodeHandle {
 public:
  FakeHandle(std::string name, Calls& calls, bool takes)
      : name_(std::move(name)), calls_(calls), takes_(takes) {}

  bool up() const override { return up_; }
  void begin_sync() override { record("begin", fail_begin); }
  void end_sync() override { record("end", fail_end); }
  void begin_take() override {
    if (takes_) record("take", false);
  }
  void end_take() override {
    if (takes_) record("taken", false);
  }
  void crash() override {
    record("crash", false);
    up_ = false;
  }
  void restart() override {
    record("restart", false);
    up_ = true;
  }

  bool fail_begin = false;
  bool fail_end = false;

 private:
  void record(const std::string& call, bool fail) {
    calls_.push_back(name_ + ":" + call);
    if (fail) throw std::runtime_error(name_ + " " + call + " failed");
  }

  std::string name_;
  Calls& calls_;
  bool takes_;  // records the take pass too
  bool up_ = true;
};

/// root -> {a, b}, a -> {a1, a2}, b -> b1, a1 -> a11, declared out of
/// depth order so the grouping has to sort.
struct FakeTree {
  explicit FakeTree(bool record_takes = false) : takes(record_takes) {
    driver.add_root("root", handle("root"));
    add("a", "root");
    add("b", "root");
    add("a1", "a");
    add("b1", "b");
    add("a11", "a1");
    add("a2", "a");
  }

  std::unique_ptr<FakeHandle> handle(const std::string& name) {
    return std::make_unique<FakeHandle>(name, calls, takes);
  }
  void add(const std::string& name, const std::string& parent) {
    driver.add(name, parent, handle(name));
  }
  FakeHandle& fake(const std::string& name) {
    return static_cast<FakeHandle&>(driver.handle(name));
  }

  bool takes;
  Calls calls;
  TreeDriver driver;
};

TEST(TreeDriver, LevelsRunDeepestFirstAndTheRootLast) {
  FakeTree tree;
  EXPECT_EQ(tree.driver.depth("root"), 0u);
  EXPECT_EQ(tree.driver.depth("b1"), 2u);
  EXPECT_EQ(tree.driver.depth("a11"), 3u);
  EXPECT_EQ(tree.driver.levels(),
            (std::vector<std::vector<std::string>>{
                {"a11"}, {"a1", "b1", "a2"}, {"a", "b"}, {"root"}}));

  tree.driver.tick();
  EXPECT_EQ(tree.calls, (Calls{"a11:begin", "a11:end",                //
                               "a1:begin", "b1:begin", "a2:begin",    //
                               "a1:end", "b1:end", "a2:end",          //
                               "a:begin", "b:begin", "a:end", "b:end",  //
                               "root:begin", "root:end"}));
}

TEST(TreeDriver, TakePassRunsBelowTheRootShallowestFirst) {
  FakeTree tree(/*record_takes=*/true);
  tree.driver.crash("b1");
  tree.calls.clear();
  tree.driver.tick();
  EXPECT_EQ(tree.calls, (Calls{"a11:begin", "a11:end",                    //
                               "a1:begin", "a2:begin", "a1:end", "a2:end",  //
                               "a:begin", "b:begin", "a:end", "b:end",      //
                               "root:begin", "root:end",                    //
                               "a:take", "b:take", "a:taken", "b:taken",    //
                               "a1:take", "a2:take", "a1:taken", "a2:taken",
                               "a11:take", "a11:taken"}));
}

TEST(TreeDriver, DownNodesAreSkippedAndARootDownHoldsTheClock) {
  FakeTree tree;
  tree.driver.crash("b1");
  tree.driver.crash("a");
  tree.calls.clear();
  tree.driver.tick();
  EXPECT_EQ(tree.calls, (Calls{"a11:begin", "a11:end", "a1:begin", "a2:begin",
                               "a1:end", "a2:end", "b:begin", "b:end",
                               "root:begin", "root:end"}));

  tree.driver.restart("a");
  tree.driver.crash("root");
  tree.calls.clear();
  tree.driver.tick();
  EXPECT_EQ(tree.calls.back(), "b:end")
      << "a root that is down neither pumps nor ticks";
}

TEST(TreeDriver, FirstFailureIsRethrownAfterEveryOwedEnd) {
  FakeTree tree;
  tree.fake("a1").fail_end = true;
  tree.fake("b1").fail_begin = true;
  tree.fake("a2").fail_end = true;
  try {
    tree.driver.tick();
    ADD_FAILURE() << "tick() swallowed the failures";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "b1 begin failed") << "not the first failure";
  }
  // b1's begin failed, so it owes no end; a1's and a2's ends still ran.
  // The shallower level and the root did not.
  EXPECT_EQ(tree.calls, (Calls{"a11:begin", "a11:end", "a1:begin", "b1:begin",
                               "a2:begin", "a1:end", "a2:end"}));
}

TEST(TreeDriver, LostRoundsLeaveTheRestOfTheTreeRunning) {
  FakeTree tree;
  tree.fake("a11").fail_begin = true;
  tree.fake("b1").fail_end = true;
  EXPECT_NO_THROW(tree.driver.tick(/*lose_failed_rounds=*/true));
  EXPECT_EQ(tree.calls, (Calls{"a11:begin", "a1:begin", "b1:begin", "a2:begin",
                               "a1:end", "b1:end", "a2:end", "a:begin",
                               "b:begin", "a:end", "b:end", "root:begin",
                               "root:end"}));
}

TEST(TreeDriver, ReparentingMovesTheSubtreeBetweenLevels) {
  FakeTree tree;
  tree.driver.set_parent("a1", "root");
  EXPECT_EQ(tree.driver.parent("a1"), "root");
  EXPECT_EQ(tree.driver.depth("a11"), 2u);
  EXPECT_EQ(tree.driver.levels(),
            (std::vector<std::vector<std::string>>{
                {"b1", "a11", "a2"}, {"a", "b", "a1"}, {"root"}}));
}

TEST(TreeDriver, RejectsUnknownParentsAndDuplicates) {
  FakeTree tree;
  EXPECT_THROW(tree.add("x", "nobody"), std::invalid_argument);
  EXPECT_THROW(tree.add("a2", "b"), std::invalid_argument);
  EXPECT_THROW(tree.driver.add_root("again", tree.handle("again")),
               std::logic_error);
  EXPECT_THROW(tree.driver.set_parent("a", "nobody"), std::invalid_argument);
  EXPECT_THROW(tree.driver.handle("nobody"), std::invalid_argument);
  EXPECT_EQ(tree.driver.names(),
            (std::vector<std::string>{"root", "a", "b", "a1", "b1", "a11",
                                      "a2"}));
}

}  // namespace
}  // namespace fbdr::topology
