package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Change is one JSON leaf that differs between two documents: its
// jq-style path and the compact JSON text of each side ("" where the
// path is absent on that side).
type Change struct {
	Path      string
	Base, Cur string
}

// absent stands in for a key or array element one side does not have.
type absent struct{}

// Diff compares two committed JSON artifacts - a sweep result, a
// scorecard or an -obs snapshot - and returns every leaf that differs,
// in path order (object keys sorted, array elements by index). Where the
// two sides are not both objects or both arrays the path is one leaf, so
// a subtree present on one side only is one change. Leaves compare by
// their JSON text, which the artifacts' deterministic encoders make
// canonical: no difference is too small to report, as with cmp.
//
// Two documents are comparable only when their top-level "spec" (its
// cosmetic name aside) and "spec_hash" agree; otherwise Diff errors,
// because the numbers of different matrices say nothing about each
// other.
func Diff(base, cur []byte) ([]Change, error) {
	b, err := decodeJSON(base)
	if err != nil {
		return nil, fmt.Errorf("base: %w", err)
	}
	c, err := decodeJSON(cur)
	if err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	var header []Change
	diffValue(".spec", specIdentity(b), specIdentity(c), &header)
	diffValue(".spec_hash", field(b, "spec_hash"), field(c, "spec_hash"), &header)
	if len(header) > 0 {
		var moved []string
		for _, ch := range header {
			moved = append(moved, fmt.Sprintf("%s %s -> %s", ch.Path, show(ch.Base), show(ch.Cur)))
		}
		return nil, fmt.Errorf("the documents come from different sweep specs (regenerate the stale one): %s",
			strings.Join(moved, "; "))
	}
	var changes []Change
	diffValue("", b, c, &changes)
	return changes, nil
}

func decodeJSON(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// field returns a top-level member of doc, or absent.
func field(doc any, key string) any {
	if m, ok := doc.(map[string]any); ok {
		if v, ok := m[key]; ok {
			return v
		}
	}
	return absent{}
}

// specIdentity is the document's spec with the cosmetic name removed,
// the same identity SpecHash hashes.
func specIdentity(doc any) any {
	spec, ok := field(doc, "spec").(map[string]any)
	if !ok {
		return field(doc, "spec")
	}
	id := make(map[string]any, len(spec))
	for k, v := range spec {
		if k != "name" {
			id[k] = v
		}
	}
	return id
}

func diffValue(path string, b, c any, out *[]Change) {
	switch bv := b.(type) {
	case map[string]any:
		if cv, ok := c.(map[string]any); ok {
			keys := make([]string, 0, len(bv)+len(cv))
			for k := range bv {
				keys = append(keys, k)
			}
			for k := range cv {
				if _, dup := bv[k]; !dup {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				diffValue(path+pathKey(k), field(bv, k), field(cv, k), out)
			}
			return
		}
	case []any:
		if cv, ok := c.([]any); ok {
			for i := 0; i < max(len(bv), len(cv)); i++ {
				var be, ce any = absent{}, absent{}
				if i < len(bv) {
					be = bv[i]
				}
				if i < len(cv) {
					ce = cv[i]
				}
				diffValue(fmt.Sprintf("%s[%d]", path, i), be, ce, out)
			}
			return
		}
	}
	if !reflect.DeepEqual(b, c) {
		*out = append(*out, Change{Path: path, Base: leafText(b), Cur: leafText(c)})
	}
}

var identKey = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// pathKey renders one object key as jq does: .key, or ["key"] for a key
// like an obs metric name that is not an identifier.
func pathKey(k string) string {
	if identKey.MatchString(k) {
		return "." + k
	}
	return "[" + strconv.Quote(k) + "]"
}

func leafText(v any) string {
	if _, ok := v.(absent); ok {
		return ""
	}
	j, _ := json.Marshal(v)
	return string(j)
}

// relPct is the change from base to cur in percent of |base|, when both
// are numbers and base is not zero.
func relPct(ch Change) (float64, bool) {
	b, errB := strconv.ParseFloat(ch.Base, 64)
	c, errC := strconv.ParseFloat(ch.Cur, 64)
	if errB != nil || errC != nil || b == 0 {
		return 0, false
	}
	return (c - b) / math.Abs(b) * 100, true
}

// show is a leaf's text for humans: "(absent)" for a missing side, and
// long subtrees cut short.
func show(text string) string {
	const maxLen = 72
	switch {
	case text == "":
		return "(absent)"
	case len(text) > maxLen:
		return text[:maxLen] + "..."
	}
	return text
}

// FprintChanges writes one line per change - path, base -> cur and, for
// numbers, the relative change - and then the exact count.
func FprintChanges(w io.Writer, changes []Change) {
	for _, ch := range changes {
		path := ch.Path
		if path == "" {
			path = "."
		}
		fmt.Fprintf(w, "%s  %s -> %s", path, show(ch.Base), show(ch.Cur))
		if pct, ok := relPct(ch); ok {
			fmt.Fprintf(w, "  (%+.2f%%)", pct)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "differing leaves: %d\n", len(changes))
}

// SpecHash returns the sha256 of the spec's canonical JSON encoding with
// the cosmetic Name field excluded. pbesweep stamps it into the -obs
// snapshot header, so Diff refuses to compare snapshots of different
// matrices.
func SpecHash(s Spec) string {
	s.Name = ""
	j, _ := json.Marshal(s)
	return fmt.Sprintf("%x", sha256.Sum256(j))
}

// WriteResult writes the result as indented JSON. The encoding is
// deterministic (fixed field order, two-decimal rounding), so files from
// identical code and spec are byte-identical.
func WriteResult(w io.Writer, r *Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
