package cli

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDSEEndToEnd runs one seeded study twice against a live mmtserved
// (the second run served from the node's cache) and once on the local
// pool: all three artifacts must be the same bytes, valid JSON, and the
// rendered frontier must keep the paper's design point on it.
func TestDSEEndToEnd(t *testing.T) {
	addr, done := startDaemon(t, "mmtserved", runServe,
		[]string{"-addr", "127.0.0.1:0", "-j", "2", "-cache-dir", t.TempDir()}, io.Discard)
	study := []string{"-space", "smoke", "-seed", "7", "-budget", "4", "-workloads", "libsvm,twolf"}
	dir := t.TempDir()
	run := func(name string, extra ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, name+".json")
		args := append(append(append([]string{}, study...), extra...), "-out", path)
		if err := runDSE(args, io.Discard, io.Discard); err != nil {
			t.Fatalf("mmtdse %s: %v", name, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(raw) {
			t.Fatalf("%s study is not valid JSON:\n%s", name, raw)
		}
		return raw
	}
	first := run("server-a", "-server", "http://"+addr)
	second := run("server-b", "-server", "http://"+addr)
	drain(t, done)
	local := run("local")
	if !bytes.Equal(first, second) {
		t.Error("two identical studies against the server differ")
	}
	if !bytes.Equal(first, local) {
		t.Error("the local study differs from the server study")
	}

	var frontier bytes.Buffer
	if err := runDSE([]string{"-render", filepath.Join(dir, "server-a.json")}, &frontier, io.Discard); err != nil {
		t.Fatalf("mmtdse -render: %v", err)
	}
	if want := "paper design point (Table 4) — on the frontier"; !strings.Contains(frontier.String(), want) {
		t.Errorf("rendered frontier missing %q:\n%s", want, frontier.String())
	}
}
