#!/usr/bin/env python3
"""Unit tests for scripts/lint_invariants.py: every rule is exercised
with at least one fixture that must FIRE and one that must PASS,
including the comment/string stripping and each allowlist entry.

Run directly (python3 tests/scripts/lint_invariants_selftest.py) or via
ctest (target lint_invariants_selftest).
"""

import importlib.util
import pathlib
import sys
import unittest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent.parent
    / "scripts"
    / "lint_invariants.py"
)
_spec = importlib.util.spec_from_file_location("lint_invariants", _SCRIPT)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def rules_hit(path: str, text: str) -> set:
    return {v.rule for v in lint.lint_text(path, text)}


class StripCodeTest(unittest.TestCase):
    def test_line_comment_removed(self):
        self.assertNotIn("std::mutex", lint.strip_code("int x; // std::mutex"))

    def test_block_comment_keeps_line_numbers(self):
        text = "a\n/* std::mutex\nspans lines */\nb"
        stripped = lint.strip_code(text)
        self.assertEqual(stripped.count("\n"), text.count("\n"))
        self.assertNotIn("mutex", stripped)

    def test_string_literal_blanked(self):
        out = lint.strip_code('Error("delete walk hit a missing item");')
        self.assertNotIn("delete", out)

    def test_code_survives(self):
        self.assertIn("std::mutex mu_;", lint.strip_code("std::mutex mu_;"))


class RawMutexTest(unittest.TestCase):
    def test_fires_on_raw_mutex(self):
        for snippet in (
            "std::mutex mu_;",
            "std::lock_guard<std::mutex> lock(mu_);",
            "std::unique_lock<std::mutex> lk(mu_);",
            "std::condition_variable cv_;",
            "std::condition_variable_any cv_;",
            "std::shared_mutex smu_;",
        ):
            self.assertIn(
                "raw-mutex", rules_hit("src/core/foo.h", snippet), snippet
            )

    def test_passes_on_wrapper_use(self):
        self.assertEqual(
            set(), rules_hit("src/core/foo.cc", "util::MutexLock l(&mu_);")
        )

    def test_allowlisted_in_wrapper_header(self):
        self.assertNotIn(
            "raw-mutex", rules_hit("src/util/mutex.h", "std::mutex mu_;")
        )

    def test_commented_mention_passes(self):
        self.assertEqual(
            set(),
            rules_hit("src/core/foo.cc", "// like std::mutex but annotated"),
        )


class NakedNewTest(unittest.TestCase):
    def test_fires_in_core(self):
        self.assertIn(
            "naked-new", rules_hit("src/core/foo.cc", "Item* it = new Item;")
        )
        self.assertIn(
            "naked-new", rules_hit("src/core/foo.cc", "delete it;")
        )
        self.assertIn(
            "naked-new",
            rules_hit("src/core/foo.cc", "void* p = ::operator new(64);"),
        )

    def test_placement_new_passes(self):
        self.assertEqual(
            set(),
            rules_hit("src/core/foo.cc", "new (slots + c) ChildSlot();"),
        )

    def test_deleted_member_passes(self):
        self.assertEqual(
            set(),
            rules_hit("src/core/foo.cc", "Foo(const Foo&) = delete;"),
        )

    def test_include_new_header_passes(self):
        self.assertEqual(set(), rules_hit("src/core/foo.cc", "#include <new>"))

    def test_outside_core_not_scanned(self):
        self.assertEqual(
            set(), rules_hit("src/util/foo.cc", "int* p = new int;")
        )

    def test_allowlist_pool_chunk_allocator(self):
        self.assertEqual(
            set(),
            rules_hit(
                "src/core/item_pool.cc",
                "char* mem = static_cast<char*>(::operator new(bs * k));",
            ),
        )

    def test_allowlist_private_ctor_factory(self):
        self.assertEqual(
            set(),
            rules_hit(
                "src/core/engine.cc",
                "auto engine = std::unique_ptr<Engine>(new Engine(q, shared));",
            ),
        )

    def test_allowlist_is_per_file(self):
        # The same line outside its allowlisted file must still fire.
        self.assertIn(
            "naked-new",
            rules_hit(
                "src/core/other.cc",
                "char* mem = static_cast<char*>(::operator new(bs * k));",
            ),
        )


class ResultApiTest(unittest.TestCase):
    def test_fires_on_fallible_bool(self):
        for snippet in (
            "bool CreateEngine(const Query& q);",
            "static bool ParseQuery(const std::string& s, Query* out);",
            "bool RegisterQuery(const Query& q);",
        ):
            self.assertIn(
                "result-api", rules_hit("src/core/foo.h", snippet), snippet
            )
            self.assertIn(
                "result-api", rules_hit("src/serve/foo.h", snippet), snippet
            )

    def test_boolean_answers_pass(self):
        for snippet in (
            "bool Apply(const UpdateCmd& cmd) override;",
            "bool Answer() override;",
            "bool Contains(Value v) const;",
            "bool IsQHierarchical(const Query& q);",
        ):
            self.assertNotIn(
                "result-api", rules_hit("src/core/foo.h", snippet), snippet
            )

    def test_result_return_passes(self):
        self.assertNotIn(
            "result-api",
            rules_hit(
                "src/core/foo.h",
                "static Result<std::unique_ptr<Engine>> Create(const Query&);",
            ),
        )

    def test_only_core_and_serve_headers(self):
        snippet = "bool CreateThing();"
        self.assertNotIn("result-api", rules_hit("src/util/foo.h", snippet))
        self.assertEqual(set(), rules_hit("src/core/foo.cc", snippet))


class NoAssertTest(unittest.TestCase):
    def test_fires_on_assert(self):
        self.assertIn(
            "no-assert", rules_hit("src/core/foo.cc", "assert(x > 0);")
        )

    def test_static_assert_passes(self):
        self.assertEqual(
            set(),
            rules_hit("src/core/foo.cc", "static_assert(sizeof(T) == 8);"),
        )

    def test_check_macro_passes(self):
        self.assertEqual(
            set(), rules_hit("src/core/foo.cc", "DYNCQ_CHECK(x > 0);")
        )


class NoAmbientRngTest(unittest.TestCase):
    def test_fires_on_ambient_sources(self):
        for snippet in (
            "int r = rand();",
            "srand(42);",
            "std::time_t t = time(nullptr);",
            "std::random_device rd;",
        ):
            self.assertIn(
                "no-ambient-rng",
                rules_hit("src/core/foo.cc", snippet),
                snippet,
            )

    def test_workload_generators_allowed(self):
        self.assertEqual(
            set(), rules_hit("src/workload/gen.cc", "std::random_device rd;")
        )

    def test_seeded_rng_passes(self):
        self.assertEqual(
            set(),
            rules_hit("src/core/foo.cc", "SplitMix64 rng(seed);"),
        )

    def test_identifier_suffix_passes(self):
        # runtime(...) / updatetime(...) must not match `time(`.
        self.assertEqual(
            set(), rules_hit("src/core/foo.cc", "double t = runtime(x);")
        )


class IncludeHygieneTest(unittest.TestCase):
    def test_fires_on_relative_include(self):
        for snippet in (
            '#include "../core/item.h"',
            '#include "./item.h"',
        ):
            self.assertIn(
                "include-hygiene",
                rules_hit("src/core/foo.cc", snippet),
                snippet,
            )

    def test_fires_on_bare_same_directory_include(self):
        self.assertIn(
            "include-hygiene",
            rules_hit("src/core/foo.cc", '#include "engine.h"'),
        )

    def test_fires_on_angle_repo_include(self):
        self.assertIn(
            "include-hygiene",
            rules_hit("src/core/foo.cc", "#include <core/engine.h>"),
        )

    def test_repo_relative_quoted_passes(self):
        # The rule reads RAW text — strip_code would blank the quoted
        # path, so a pass here also proves the raw-text plumbing works.
        self.assertEqual(
            set(),
            rules_hit("src/core/foo.cc", '#include "core/engine.h"'),
        )

    def test_system_angle_passes(self):
        self.assertEqual(
            set(), rules_hit("src/core/foo.cc", "#include <vector>")
        )

    def test_commented_include_passes(self):
        self.assertEqual(
            set(),
            rules_hit("src/core/foo.cc", '// #include "../old/item.h"'),
        )


class HeaderGuardTest(unittest.TestCase):
    def test_fires_on_pragma_once(self):
        self.assertIn(
            "header-guard",
            rules_hit("src/core/foo.h", "#pragma once\nint x;"),
        )

    def test_fires_on_missing_guard(self):
        self.assertIn(
            "header-guard", rules_hit("src/core/foo.h", "int x;")
        )

    def test_fires_on_wrong_guard_name(self):
        text = "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n"
        self.assertIn("header-guard", rules_hit("src/core/foo.h", text))

    def test_canonical_guard_passes(self):
        text = (
            "#ifndef DYNCQ_CORE_FOO_H_\n"
            "#define DYNCQ_CORE_FOO_H_\n"
            "#endif  // DYNCQ_CORE_FOO_H_\n"
        )
        self.assertEqual(set(), rules_hit("src/core/foo.h", text))

    def test_sources_not_checked(self):
        self.assertEqual(set(), rules_hit("src/core/foo.cc", "int x;"))


class NoAlignedAllocTest(unittest.TestCase):
    def test_fires_on_aligned_requests(self):
        for snippet in (
            "void* m = ::operator new(n, std::align_val_t{64});",
            "::operator delete(p, n, std::align_val_t{kCacheLine});",
            "void* m = std::aligned_alloc(64, n);",
            "void* m = aligned_alloc(64, n);",
            "if (posix_memalign(&m, 64, n) != 0) return;",
            "void* m = memalign(64, n);",
        ):
            for path in ("src/core/foo.h", "src/util/foo.cc"):
                self.assertIn(
                    "no-aligned-alloc", rules_hit(path, snippet), snippet
                )

    def test_plain_allocation_passes(self):
        for snippet in (
            "void* m = ::operator new(words * sizeof(std::uint64_t));",
            "alignas(T) unsigned char inline_buf_[N * sizeof(T)];",
            "std::size_t aligned_size = AlignUp(n);",
        ):
            self.assertNotIn(
                "no-aligned-alloc",
                rules_hit("src/core/foo.cc", snippet),
                snippet,
            )

    def test_commented_mention_passes(self):
        self.assertNotIn(
            "no-aligned-alloc",
            rules_hit("src/core/foo.h", "// no std::align_val_t here"),
        )

    def test_outside_src_not_scanned(self):
        self.assertNotIn(
            "no-aligned-alloc",
            rules_hit(
                "tests/core/foo.cc", "void* m = std::aligned_alloc(64, n);"
            ),
        )


class StoredItemPtrTest(unittest.TestCase):
    def test_fires_on_pointer_member(self):
        for snippet in (
            "Item* cached_ = nullptr;",
            "Item* head;",
        ):
            self.assertIn(
                "stored-item-ptr",
                rules_hit("src/core/foo.h", snippet),
                snippet,
            )

    def test_fires_on_container_of_item_ptr(self):
        for snippet in (
            "std::vector<Item*> retired_;",
            "SmallVector<Item*, 8> chain_;",
            "std::unordered_map<Value, Item*> index_;",
        ):
            self.assertIn(
                "stored-item-ptr",
                rules_hit("src/core/foo.h", snippet),
                snippet,
            )

    def test_resolution_casts_pass(self):
        self.assertNotIn(
            "stored-item-ptr",
            rules_hit(
                "src/core/foo.h",
                "return const_cast<Item*>(ResolveConst(h));",
            ),
        )
        self.assertNotIn(
            "stored-item-ptr",
            rules_hit(
                "src/core/foo.h",
                "return reinterpret_cast<Item*>(r.items + off);",
            ),
        )

    def test_function_signatures_pass(self):
        for snippet in (
            "Item* Alloc(std::uint32_t n, std::size_t stripe = 0);",
            "void MaintainRun(Item* head);",
        ):
            self.assertNotIn(
                "stored-item-ptr",
                rules_hit("src/core/foo.h", snippet),
                snippet,
            )

    def test_allowlist_batch_scratch(self):
        self.assertNotIn(
            "stored-item-ptr",
            rules_hit(
                "src/core/component_engine.h", "Item* item = nullptr;"
            ),
        )

    def test_allowlist_is_per_file(self):
        self.assertIn(
            "stored-item-ptr",
            rules_hit("src/core/other.h", "Item* item = nullptr;"),
        )

    def test_allowlist_names_only_the_batch_scratch_member(self):
        self.assertIn(
            "stored-item-ptr",
            rules_hit(
                "src/core/component_engine.h", "Item* root = nullptr;"
            ),
        )

    def test_cc_files_out_of_scope(self):
        self.assertEqual(
            set(),
            rules_hit("src/core/foo.cc", "Item* parent = nullptr;"),
        )

    def test_outside_core_not_scanned(self):
        self.assertNotIn(
            "stored-item-ptr",
            rules_hit("src/serve/foo.h", "Item* cached_ = nullptr;"),
        )


class NodiscardResultTest(unittest.TestCase):
    def test_fires_on_unannotated_result_api(self):
        for snippet in (
            "Result<QueryHandle> Register(const Query& q);",
            "util::Result<std::uint64_t> PinEpoch();",
            "Status UnpinEpoch(std::uint64_t epoch);",
            "static Result<Query> Parse(const std::string& text);",
            "virtual Result<std::unique_ptr<Cursor>> NewSnapshotCursor(\n"
            "    std::uint64_t epoch);",
        ):
            self.assertIn(
                "nodiscard-result",
                rules_hit("src/core/foo.h", snippet),
                snippet,
            )

    def test_annotated_declarations_pass(self):
        for snippet in (
            "[[nodiscard]] Result<QueryHandle> Register(const Query& q);",
            "[[nodiscard]] static Status Ok() { return Status(); }",
            # Attribute on its own line above the declaration also counts.
            "[[nodiscard]]\nResult<Query> Parse(const std::string& text);",
        ):
            self.assertNotIn(
                "nodiscard-result",
                rules_hit("src/core/foo.h", snippet),
                snippet,
            )

    def test_non_declarations_pass(self):
        for snippet in (
            # A return statement, not a declaration.
            'return Err("bad");',
            # Variable of Result type, not a function.
            "Result<Query> parsed = Parse(text);",
        ):
            self.assertNotIn(
                "nodiscard-result",
                rules_hit("src/core/foo.h", snippet),
                snippet,
            )

    def test_sources_and_tests_out_of_scope(self):
        snippet = "Result<Query> Parse(const std::string& text);"
        self.assertNotIn(
            "nodiscard-result", rules_hit("src/core/foo.cc", snippet)
        )
        self.assertNotIn(
            "nodiscard-result", rules_hit("tests/core/foo.h", snippet)
        )


class ParsePathCheckTest(unittest.TestCase):
    def test_fires_on_check_in_parser(self):
        for snippet in (
            "DYNCQ_CHECK(tok.kind == Token::Kind::kNumber);",
            'DYNCQ_CHECK_MSG(arity > 0, "empty atom");',
            "DYNCQ_DCHECK(pos_ < tokens_.size());",
        ):
            self.assertIn(
                "parse-path-check",
                rules_hit("src/cq/parser.cc", snippet),
                snippet,
            )

    def test_typed_errors_pass(self):
        self.assertEqual(
            set(),
            rules_hit(
                "src/cq/parser.cc",
                'return Err("integer constant out of range");',
            ),
        )

    def test_commented_check_passes(self):
        self.assertEqual(
            set(),
            rules_hit(
                "src/cq/parser.cc", "// DYNCQ_CHECK would abort here"
            ),
        )

    def test_other_files_out_of_scope(self):
        # Internal invariants over already-validated Query objects may
        # still CHECK; only user-input parse paths are banned.
        self.assertNotIn(
            "parse-path-check",
            rules_hit("src/cq/canonical.cc", "DYNCQ_CHECK(n > 0);"),
        )


class TreeTest(unittest.TestCase):
    def test_in_tree_src_is_clean(self):
        root = _SCRIPT.parent.parent
        violations = lint.lint_tree(root)
        self.assertEqual(
            [], violations, "\n".join(str(v) for v in violations)
        )


if __name__ == "__main__":
    sys.exit(unittest.main())
