package server

import (
	"fmt"
	"reflect"

	"repro/internal/qcache"
)

// mergeStatz folds one worker's /statz report into the fleet's, field by
// field, by each field's merge tag (see StatzJSON).
func mergeStatz(fleet, worker *StatzJSON) {
	mergeFields(reflect.ValueOf(fleet).Elem(), reflect.ValueOf(worker).Elem())
}

func mergeFields(dst, src reflect.Value) {
	for i := range dst.NumField() {
		d, s := dst.Field(i), src.Field(i)
		switch rule := dst.Type().Field(i).Tag.Get("merge"); rule {
		case "-":
		case "first":
			if d.IsZero() {
				d.Set(s)
			}
		case "max":
			if d.Int() < s.Int() {
				d.Set(s)
			}
		case "sum":
			switch d.Kind() {
			case reflect.Pointer:
				if s.IsNil() {
					continue
				}
				if d.IsNil() {
					d.Set(reflect.New(d.Type().Elem()))
				}
				mergeFields(d.Elem(), s.Elem())
			case reflect.Map:
				if s.Len() > 0 && d.IsNil() {
					d.Set(reflect.MakeMapWithSize(d.Type(), s.Len()))
				}
				for it := s.MapRange(); it.Next(); {
					cur := d.MapIndex(it.Key())
					if !cur.IsValid() {
						cur = reflect.Zero(d.Type().Elem())
					}
					d.SetMapIndex(it.Key(), plus(cur, it.Value()))
				}
			default:
				d.Set(plus(d, s))
			}
		default:
			panic(fmt.Sprintf("server: %s.%s has no merge rule, %q", dst.Type().Name(), dst.Type().Field(i).Name, rule))
		}
	}
}

// plus is a + b for two numbers of one type.
func plus(a, b reflect.Value) reflect.Value {
	v := reflect.New(a.Type()).Elem()
	if a.CanInt() {
		v.SetInt(a.Int() + b.Int())
	} else {
		v.SetFloat(a.Float() + b.Float())
	}
	return v
}

// ratios derives the average batch size and the cache hit rate from the
// counts they divide, so a worker and a router — whose counts are sums —
// report them alike.
func (s *StatzJSON) ratios() {
	if s.Search != nil && s.Search.Batches > 0 {
		s.Search.AvgBatchSize = float64(s.Search.BatchedQueries) / float64(s.Search.Batches)
	}
	if s.Cache != nil {
		s.Cache.HitRate = qcache.Stats{Hits: s.Cache.Hits, Misses: s.Cache.Misses}.HitRate()
	}
}
