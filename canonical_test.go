package ncq

import (
	"encoding/base64"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The fmt renderings the canonical encoding was first defined by. Cache
// keys and cursor fingerprints derive from these bytes, so the appending
// encoders must spell them exactly: a cursor minted by sprintfCursor over
// sprintfBase is one a client may still hold.

func sprintfOptions(o *Options) string {
	if !o.set() {
		return "-"
	}
	s := &o.spec
	excl := slices.Clone(s.Exclude)
	slices.Sort(excl)
	restr := slices.Clone(s.Restrict)
	slices.Sort(restr)
	return fmt.Sprintf("xroot=%t x=%q r=%q near=%t w=%d lift=%d",
		s.ExcludeRoot, excl, restr, s.Nearest, s.Within, s.MaxLift)
}

func sprintfVague(v *Vague) string {
	if !v.active() {
		return ""
	}
	return fmt.Sprintf(" vague=%d,%t", v.MaxSlack, v.Expand)
}

func sprintfBase(r *Request) string {
	return fmt.Sprintf("doc=%q terms=%q ql=%q opt=%s lim=%d",
		r.Doc, r.Terms, strings.Join(strings.Fields(r.Query), " "),
		sprintfOptions(r.Options), r.Limit) + sprintfVague(r.Vague)
}

func sprintfCanonical(r *Request) string {
	off, gen, err := r.Page()
	if err != nil {
		return sprintfBase(r) + " cur=" + strconv.Quote(r.Cursor)
	}
	s := sprintfBase(r) + " off=" + strconv.Itoa(off)
	if r.Cursor != "" {
		s += " cgen=" + strconv.FormatUint(gen, 10)
	}
	return s
}

func sprintfFingerprint(r *Request) uint32 {
	h := fnv.New32a()
	h.Write([]byte(sprintfBase(r)))
	return h.Sum32()
}

func sprintfCursor(offset int, fp uint32, gen uint64) string {
	return base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf("v2 %d %08x %d", offset, fp, gen)))
}

// FuzzCanonicalEqualsSprintf: Canonical, the base a cursor is
// fingerprinted against and the cursor itself are, to the byte, what
// their fmt renderings were — for any field values, nil Options, nil
// Vague and empty slices included — and a cursor minted the old way
// still decodes to its page.
func FuzzCanonicalEqualsSprintf(f *testing.F) {
	f.Add("bib", "Bit\x001999", "", "//x\x00//a", "", true, false, 0, 0, 10, -1, false, 3, uint64(7), "")
	f.Add(`a"b\c`, "\xff\x00 ", "", "", "", false, true, 2, 1, 0, 2, true, 0, uint64(0), "")
	f.Add("", "", "  SELECT  meet(a, b)\tFROM //x AS a ", "", "", false, false, 0, 0, 1, 0, false, 12, uint64(1<<63), "junk")
	f.Add("d ", "x", "", "z\x00a\x00m", `\"`+"\x7f", true, true, -3, -1, 0, 0, false, 0, uint64(0), "djIgMA")
	f.Add("", "t", "", "", "", false, false, 0, 0, 0, -1, false, 1<<40, uint64(42), "")
	f.Add("\u2028", "a\u2029b\x00\u2028", "SELECT tag(e) FROM //\u2028 AS e", "\u2028", "<&>", false, false, 0, 5, 0, 1, false, 0, uint64(0), "\u2028")
	f.Fuzz(func(t *testing.T, doc, terms, query, exclude, restrict string, xroot, nearest bool, within, lift, limit, slack int, expand bool,
		offset int, gen uint64, cursor string) {
		split := func(s string) []string {
			if s == "" {
				return []string{}
			}
			return strings.Split(s, "\x00")
		}
		r := Request{Doc: doc, Terms: split(terms), Query: query, Limit: limit, Cursor: cursor,
			Options: NewOptions(OptionSpec{ExcludeRoot: xroot, Exclude: split(exclude), Restrict: split(restrict),
				Nearest: nearest, Within: within, MaxLift: lift})}
		if slack >= 0 {
			r.Vague = &Vague{MaxSlack: slack, Expand: expand}
		}
		if got, want := string(r.appendCanonicalBase(nil)), sprintfBase(&r); got != want {
			t.Fatalf("base:\n got %q\nwant %q", got, want)
		}
		if got, want := r.Canonical(), sprintfCanonical(&r); got != want {
			t.Fatalf("Canonical:\n got %q\nwant %q", got, want)
		}
		if got, want := r.fingerprint(), sprintfFingerprint(&r); got != want {
			t.Fatalf("fingerprint %08x, want %08x", got, want)
		}
		if got, want := encodeCursor(offset, r.fingerprint(), gen), sprintfCursor(offset, sprintfFingerprint(&r), gen); got != want {
			t.Fatalf("cursor %q, want %q", got, want)
		}
		if offset < 0 {
			return // no page starts there; decodeCursor refuses it
		}
		r.Cursor = sprintfCursor(offset, sprintfFingerprint(&r), gen)
		if off, g, err := r.Page(); err != nil || off != offset || g != gen {
			t.Fatalf("a cursor minted the old way decodes to (%d, %d, %v), want (%d, %d)", off, g, err, offset, gen)
		}
		if got, want := r.Canonical(), sprintfCanonical(&r); got != want {
			t.Fatalf("Canonical with a cursor:\n got %q\nwant %q", got, want)
		}
	})
}
