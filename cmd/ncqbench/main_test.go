package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func exec(t *testing.T, argv ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(context.Background(), argv, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestBenchFig7Small(t *testing.T) {
	code, out, errOut := exec(t, "-experiment", "fig7", "-pubs", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "# Figure 7") {
		t.Errorf("header missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 3 header lines + 16 data rows.
	if len(lines) != 19 {
		t.Errorf("lines = %d, want 19\n%s", len(lines), out)
	}
	// The 1985 row repeats the 1986 output (no ICDE in 1985).
	var out1986, out1985 string
	for _, l := range lines {
		if strings.HasPrefix(l, "1986\t") {
			out1986 = strings.Split(l, "\t")[2]
		}
		if strings.HasPrefix(l, "1985\t") {
			out1985 = strings.Split(l, "\t")[2]
		}
	}
	if out1985 == "" || out1985 != out1986 {
		t.Errorf("1985 step broken: %q vs %q", out1985, out1986)
	}
}

func TestBenchFig6Small(t *testing.T) {
	code, out, _ := exec(t, "-experiment", "fig6", "-items", "20", "-iters", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "# Figure 6") {
		t.Errorf("header missing:\n%s", out)
	}
	// 21 data rows for distances 0..20.
	data := 0
	for _, l := range strings.Split(out, "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			data++
		}
	}
	if data != 21 {
		t.Errorf("data rows = %d, want 21", data)
	}
}

func TestBenchScalingAndAblationAndExplosion(t *testing.T) {
	code, out, _ := exec(t, "-experiment", "scaling", "-pubs", "2")
	if code != 0 || !strings.Contains(out, "# Input-cardinality") {
		t.Errorf("scaling: code %d\n%s", code, out)
	}
	code, out, _ = exec(t, "-experiment", "ablation", "-pubs", "2", "-iters", "1")
	if code != 0 || !strings.Contains(out, "parent-bat-join") {
		t.Errorf("ablation: code %d\n%s", code, out)
	}
	if !strings.Contains(out, "true") {
		t.Error("ablation strategies disagree")
	}
	code, out, _ = exec(t, "-experiment", "explosion", "-pubs", "2")
	if code != 0 || !strings.Contains(out, "baseline_pairs") {
		t.Errorf("explosion: code %d\n%s", code, out)
	}
}

func TestBenchErrors(t *testing.T) {
	if code, _, errOut := exec(t, "-experiment", "bogus"); code != 2 || !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("code %d, stderr %q", code, errOut)
	}
	if code, _, _ := exec(t, "-badflag"); code != 2 {
		t.Error("bad flag accepted")
	}
}
