"""Tests for the on-disk result cache and the code fingerprint."""

from repro.runner import ResultCache, TaskSpec, code_fingerprint


def spec(**kwargs):
    return TaskSpec(fn="repro.models.mathis:mathis_window", args=(0.02,), **kwargs)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        assert cache.lookup(spec()) == (False, None)
        cache.store(spec(), {"answer": 42})
        hit, value = cache.lookup(spec())
        assert hit and value == {"answer": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_none_result_is_a_hit(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        cache.store(spec(), None)
        hit, value = cache.lookup(spec())
        assert hit and value is None

    def test_miss_after_spec_change(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        cache.store(spec(), 1.0)
        changed = TaskSpec(fn="repro.models.mathis:mathis_window", args=(0.03,))
        hit, _ = cache.lookup(changed)
        assert not hit

    def test_miss_after_code_fingerprint_change(self, tmp_path):
        before = ResultCache(root=tmp_path, fingerprint="a" * 64)
        before.store(spec(), 1.0)
        after = ResultCache(root=tmp_path, fingerprint="b" * 64)
        hit, _ = after.lookup(spec())
        assert not hit
        # ... while the old code version still hits.
        assert ResultCache(root=tmp_path, fingerprint="a" * 64).lookup(spec())[0]

    def test_unpicklable_result_degrades_to_no_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        assert cache.store(spec(), lambda: None) is False
        assert cache.lookup(spec()) == (False, None)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        cache.store(spec(), 1.0)
        path = cache._path(spec())
        path.write_bytes(b"not a pickle")
        hit, _ = cache.lookup(spec())
        assert not hit


class TestCodeFingerprint:
    def test_deterministic_per_tree(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        assert code_fingerprint(tmp_path) == code_fingerprint(tmp_path)

    def test_content_change_changes_fingerprint(self, tmp_path):
        # (two trees rather than an in-place edit: the fingerprint is
        # memoized per path for the life of the process)
        one = tmp_path / "one"
        two = tmp_path / "two"
        for root, body in [(one, "x = 1\n"), (two, "x = 2\n")]:
            root.mkdir()
            (root / "a.py").write_text(body)
        assert code_fingerprint(one) != code_fingerprint(two)

    def test_rename_changes_fingerprint(self, tmp_path):
        one = tmp_path / "one"
        two = tmp_path / "two"
        for root, name in [(one, "a.py"), (two, "b.py")]:
            root.mkdir()
            (root / name).write_text("x = 1\n")
        assert code_fingerprint(one) != code_fingerprint(two)

    def test_compiled_core_source_change_changes_fingerprint(self, tmp_path):
        # sim/_engine_core.c is the code that runs the cells on the
        # compiled backend: a one-byte edit must invalidate cached rows.
        import shutil

        from repro.runner import package_root

        roots = []
        for name in ("one", "two"):
            root = tmp_path / name / "repro"
            shutil.copytree(
                package_root(),
                root,
                ignore=shutil.ignore_patterns("__pycache__", "*.so"),
            )
            roots.append(root)
        core = roots[1] / "sim" / "_engine_core.c"
        source = core.read_bytes()
        core.write_bytes(source[:-1] + bytes([source[-1] ^ 1]))
        assert code_fingerprint(roots[0]) != code_fingerprint(roots[1])

    def test_repo_fingerprint_is_memoized_and_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_golden_digest_change_changes_fingerprint(self, tmp_path):
        # Refreshing tests/golden/state_digests.json declares "behaviour
        # intentionally changed" and must invalidate cached results even
        # though no .py under the package root changed.
        roots = []
        for name, body in [("one", '{"reno": "a"}'), ("two", '{"reno": "b"}')]:
            root = tmp_path / name / "src" / "repro"
            root.mkdir(parents=True)
            (root / "a.py").write_text("x = 1\n")
            golden = tmp_path / name / "tests" / "golden"
            golden.mkdir(parents=True)
            (golden / "state_digests.json").write_text(body)
            roots.append(root)
        assert code_fingerprint(roots[0]) != code_fingerprint(roots[1])

    def test_reference_model_change_changes_fingerprint(self, tmp_path):
        # Regenerating the behavior-class reference model must
        # likewise invalidate cached results: identification verdicts
        # depend on the model bytes, which no .py file carries.
        roots = []
        for name, body in [("one", '{"kind": "a"}'), ("two", '{"kind": "b"}')]:
            root = tmp_path / name / "src" / "repro"
            (root / "ident").mkdir(parents=True)
            (root / "a.py").write_text("x = 1\n")
            (root / "ident" / "reference_model.json").write_text(body)
            roots.append(root)
        assert code_fingerprint(roots[0]) != code_fingerprint(roots[1])
