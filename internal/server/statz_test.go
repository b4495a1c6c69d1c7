package server

import (
	"fmt"
	"reflect"
	"testing"
)

// TestStatzMergeRules fills every leaf of two /statz reports with distinct
// non-zero values, merges both into an empty fleet report, and checks each
// leaf against its merge tag: sum adds (maps key by key, sections field by
// field), max keeps the larger, first keeps the first report's, - leaves the
// field to the router. A field with no valid rule for its kind fails here
// instead of dropping out of the fleet view. Counters add; the fields that do
// not are pinned by name, so a maximum tagged sum fails too.
func TestStatzMergeRules(t *testing.T) {
	n := 0
	var a, b StatzJSON
	fillLeaves(t, reflect.ValueOf(&a).Elem(), &n)
	fillLeaves(t, reflect.ValueOf(&b).Elem(), &n)

	var fleet StatzJSON
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("merge: %v", r)
			}
		}()
		mergeStatz(&fleet, &a)
		mergeStatz(&fleet, &b)
	}()

	notSummed := map[string]string{}
	checkMerge(t, "", reflect.ValueOf(fleet), reflect.ValueOf(a), reflect.ValueOf(b), notSummed)
	want := map[string]string{
		"UptimeMs": "-", "InFlight": "-", "MaxInFlight": "-", "Router": "-",
		"Snapshot":         "first",
		"Search.IndexDocs": "first", "Search.Shards": "first", "Search.AvgBatchSize": "-",
		"Cache.HitRate":          "-",
		"Geo.GazetteerLocations": "first", "Geo.LargestComponent": "max", "Geo.PeakScratchBytes": "max",
	}
	if !reflect.DeepEqual(notSummed, want) {
		t.Errorf("fields not summed = %v, want %v", notSummed, want)
	}
}

// fillLeaves sets every leaf under v to a value no other leaf holds, counting
// up from *n: a second report filled after the first is larger everywhere.
// Maps get a key both reports share and one of their own.
func fillLeaves(t *testing.T, v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillLeaves(t, v.Field(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillLeaves(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillLeaves(t, v.Index(0), n)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for _, k := range []string{"shared", fmt.Sprint("own", *n)} {
			e := reflect.New(v.Type().Elem()).Elem()
			fillLeaves(t, e, n)
			v.SetMapIndex(reflect.ValueOf(k).Convert(v.Type().Key()), e)
		}
	case reflect.String:
		*n++
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		*n++
		v.SetInt(int64(*n))
	case reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.5)
	default:
		t.Fatalf("fillLeaves: no value for a %s", v.Type())
	}
}

// checkMerge compares each field of the merged struct got with what its tag
// makes of a and b, recording the rule of every field that is not summed.
func checkMerge(t *testing.T, path string, got, a, b reflect.Value, notSummed map[string]string) {
	for i := range got.NumField() {
		f := got.Type().Field(i)
		g, x, y := got.Field(i), a.Field(i), b.Field(i)
		name := path + f.Name
		rule := f.Tag.Get("merge")
		if rule != "sum" {
			notSummed[name] = rule
		}
		switch {
		case rule == "-":
			if !g.IsZero() {
				t.Errorf("%s (-) = %v, want it left to the router", name, g)
			}
		case rule == "first":
			if !reflect.DeepEqual(g.Interface(), x.Interface()) {
				t.Errorf("%s (first) = %v, want the first report's %v", name, g, x)
			}
		case rule == "max" && isNumber(g.Kind()):
			if w := max(asFloat(x), asFloat(y)); asFloat(g) != w {
				t.Errorf("%s (max) = %v, want %v", name, g, w)
			}
		case rule == "sum" && isNumber(g.Kind()):
			if w := asFloat(x) + asFloat(y); asFloat(g) != w {
				t.Errorf("%s (sum) = %v, want %v", name, g, w)
			}
		case rule == "sum" && g.Kind() == reflect.Map && isNumber(g.Type().Elem().Kind()):
			keys := map[string]bool{}
			for _, m := range []reflect.Value{x, y} {
				for _, k := range m.MapKeys() {
					keys[k.String()] = true
				}
			}
			if g.Len() != len(keys) {
				t.Errorf("%s (sum) has %d keys, want the %d the reports hold", name, g.Len(), len(keys))
			}
			for k := range keys {
				key := reflect.ValueOf(k).Convert(g.Type().Key())
				w := 0.0
				for _, m := range []reflect.Value{x, y} {
					if v := m.MapIndex(key); v.IsValid() {
						w += asFloat(v)
					}
				}
				if v := g.MapIndex(key); !v.IsValid() || asFloat(v) != w {
					t.Errorf("%s[%q] (sum) = %v, want %v", name, k, v, w)
				}
			}
		case rule == "sum" && g.Kind() == reflect.Pointer && g.Type().Elem().Kind() == reflect.Struct:
			if g.IsNil() {
				t.Errorf("%s (sum): section missing", name)
				continue
			}
			checkMerge(t, name+".", g.Elem(), x.Elem(), y.Elem(), notSummed)
		default:
			t.Errorf("%s: a %s has no valid merge rule (tag %q)", name, g.Type(), rule)
		}
	}
}

func isNumber(k reflect.Kind) bool {
	return k == reflect.Int || k == reflect.Int64 || k == reflect.Float64
}
