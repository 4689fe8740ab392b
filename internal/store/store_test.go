package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("a")
	body := []byte(`{"x":1}` + "\n")
	if _, ok := st.Get(k); ok {
		t.Fatal("Get before Put reported a hit")
	}
	if err := st.Put(k, body); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(k)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v; want the stored bytes", got, ok)
	}
	// Idempotent: a second Put of the same key is a no-op.
	if err := st.Put(k, []byte("different")); err != nil {
		t.Fatal(err)
	}
	got, _ = st.Get(k)
	if !bytes.Equal(got, body) {
		t.Error("second Put overwrote a content-addressed entry")
	}
	stats := st.Stats()
	if stats.Entries != 1 || stats.Puts != 1 || stats.Hits != 2 || stats.Misses != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestReopenRebuildIndex(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{}
	for _, s := range []string{"a", "b", "c"} {
		k := key(s)
		bodies[k] = []byte(`{"v":"` + s + `"}`)
		if err := st.Put(k, bodies[k]); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh Open on the same directory must see every entry — the
	// restart-safety contract.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Stats().Entries != 3 {
		t.Fatalf("reopened Entries = %d, want 3", st2.Stats().Entries)
	}
	for k, want := range bodies {
		got, ok := st2.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("reopened Get(%s) = %q, %v", k[:8], got, ok)
		}
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ab/notakey.json", "ab/short.json", "README.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Entries != 0 {
		t.Errorf("Entries = %d, want 0 (foreign files must not index)", st.Stats().Entries)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "short", strings.Repeat("Z", 64), "../../../etc/passwd"} {
		if err := st.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q): want error, got none", k)
		}
		if _, ok := st.Get(k); ok {
			t.Errorf("Get(%q): want miss", k)
		}
	}
}

func TestGetDropsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key("x")
	if err := st.Put(k, []byte("body")); err != nil {
		t.Fatal(err)
	}
	// Remove the file behind the index's back; Get must miss and heal
	// the index instead of erroring forever.
	if err := os.Remove(filepath.Join(dir, k[:2], k+".json")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(k); ok {
		t.Fatal("Get of a removed entry reported a hit")
	}
	if st.Stats().Entries != 0 {
		t.Errorf("Entries = %d after heal, want 0", st.Stats().Entries)
	}
	if st.Stats().Errors == 0 {
		t.Error("read failure not counted in Errors")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deep", "nested", "f.json")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("read = %q, %v", got, err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("dir has %d entries, want 1 (temp files must not leak)", len(entries))
	}
}
