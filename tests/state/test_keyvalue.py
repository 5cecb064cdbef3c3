"""Unit tests for the KeyValueMap state element."""

import pytest

from repro.state import KeyValueMap


class TestKeyValueMapBasics:
    def test_get_missing_returns_default(self):
        kv = KeyValueMap()
        assert kv.get("missing") is None
        assert kv.get("missing", 42) == 42

    def test_put_get_roundtrip(self):
        kv = KeyValueMap()
        kv.put("a", 1)
        assert kv.get("a") == 1

    def test_put_overwrites(self):
        kv = KeyValueMap()
        kv.put("a", 1)
        kv.put("a", 2)
        assert kv.get("a") == 2
        assert len(kv) == 1

    def test_delete(self):
        kv = KeyValueMap()
        kv.put("a", 1)
        kv.delete("a")
        assert not kv.contains("a")

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            KeyValueMap().delete("nope")

    def test_increment_from_absent(self):
        kv = KeyValueMap()
        assert kv.increment("w") == 1
        assert kv.increment("w", 4) == 5

    def test_keys_and_items(self):
        kv = KeyValueMap()
        kv.put("a", 1)
        kv.put("b", 2)
        assert sorted(kv.keys()) == ["a", "b"]
        assert sorted(kv.items()) == [("a", 1), ("b", 2)]


class TestKeyValueMapCheckpointing:
    """A checkpoint's cut is a copy: it keeps the contents it was taken
    from, and the live map goes on serving reads and writes."""

    def test_reads_prefer_dirty_state(self):
        kv = KeyValueMap()
        kv.put("k", "old")
        cut = kv.cut()
        kv.put("k", "new")
        assert kv.get("k") == "new"
        assert dict(cut.items)["k"] == "old"

    def test_delete_during_checkpoint_uses_tombstone(self):
        kv = KeyValueMap()
        kv.put("k", 1)
        cut = kv.cut()
        kv.delete("k")
        assert not kv.contains("k")
        assert kv.get("k", "gone") == "gone"
        assert "k" in dict(cut.items)

    def test_delete_of_tombstoned_key_raises(self):
        kv = KeyValueMap()
        kv.put("k", 1)
        kv.cut()
        kv.delete("k")
        with pytest.raises(KeyError):
            kv.delete("k")

    def test_insert_then_read_of_new_key_during_checkpoint(self):
        kv = KeyValueMap()
        cut = kv.cut()
        kv.put("fresh", 7)
        assert kv.get("fresh") == 7
        assert kv.items() == [("fresh", 7)]
        assert cut.items == []

    def test_len_is_overlay_aware(self):
        kv = KeyValueMap()
        kv.put("a", 1)
        cut = kv.cut()
        kv.put("b", 2)
        kv.delete("a")
        assert len(kv) == 1 and kv.items() == [("b", 2)]
        assert cut.items == [("a", 1)]


class TestOneDictOp:
    """Each op is one dict op plus its journal write: it leaves the map,
    the journal and the update count exactly as the ``_get`` / ``_set``
    / ``_delete`` helpers would, in one Python frame."""

    OPS = [("put", "a", 1), ("inc", "w", 2), ("put", 3, "x"),
           ("del", "a", None), ("inc", "w", 0.5), ("del", "a", None),
           ("put", "a", 4), ("inc", ("t", 1), 1), ("del", 3, None)]

    def test_ops_leave_what_the_helpers_would(self):
        kv, ref = KeyValueMap(), KeyValueMap()
        for op, key, value in self.OPS:
            if op == "put":
                kv.put(key, value)
                ref._set(key, value)
            elif op == "inc":
                assert kv.increment(key, value) == ref._get(key, 0) + value
                ref._set(key, ref._get(key, 0) + value)
            else:
                outcomes = []
                for delete in (kv.delete, ref._delete):
                    try:
                        delete(key)
                        outcomes.append("deleted")
                    except KeyError:
                        outcomes.append("missing")
                assert outcomes[0] == outcomes[1]
            assert kv.get(key, "-") == ref._get(key, "-")
            assert kv.contains(key) == ref.backend.contains(key)
        assert sorted(kv.items(), key=repr) == sorted(ref.items(), key=repr)
        assert kv.journal() == ref.journal()
        assert kv.update_count == ref.update_count

    def test_each_op_is_one_python_frame(self):
        import sys

        kv = KeyValueMap()
        kv.put("a", 1)
        frames = []

        def profile(frame, event, arg):
            if event == "call":
                frames.append(frame.f_code.co_name)

        for call in (lambda: kv.put("b", 2), lambda: kv.get("b"),
                     lambda: kv.increment("b"), lambda: kv.contains("a"),
                     lambda: kv.delete("a")):
            frames.clear()
            sys.setprofile(profile)
            try:
                call()
            finally:
                sys.setprofile(None)
            assert len(frames) == 2, frames  # the lambda and the op
