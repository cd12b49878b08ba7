package daemon

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// flagless lists the RegionConfig fields no flag sets, each with the
// reason. A field missing from both this list and RegisterFlags fails
// TestEveryKnobHasOneFlag.
var flagless = map[string]string{
	"Registry": "injected: the fleet gives every region its own",
	"Logger":   "injected: built from the process's -log-* flags",
	"Now":      "injected: tests pass a fake clock",

	"DCCapacity":       "set by bench/ only; 0 selects the fabric's default",
	"Lambda":           "set by bench/ only; 0 selects the fabric's default",
	"FailureThreshold": "set by tests only; 0 selects the breaker's default",
	"BackoffBase":      "set by tests only; 0 selects the breaker's default",
	"BackoffMax":       "set by tests only; 0 selects the breaker's default",

	"Profile.DiurnalPhaseS": "set by tests only; 0 starts the cycle at its mean",
}

// leaves returns the value of every field of a RegionConfig by name, the
// fields of Profile as Profile.X and of the embedded Spec as Spec.X.
func leaves(c RegionConfig) map[string]any {
	out := map[string]any{}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + v.Type().Field(i).Name
			if name == "Profile" || name == "Spec" {
				walk(name+".", v.Field(i))
			} else if f := v.Field(i); f.Kind() == reflect.Func {
				out[name] = f.IsNil() // funcs compare only with nil
			} else {
				out[name] = f.Interface()
			}
		}
	}
	walk("", reflect.ValueOf(c))
	return out
}

// TestEveryKnobHasOneFlag sets every registered flag to a value other
// than its default and watches which field moves: each flag must write
// exactly one field, no field may be written by two flags, and a field no
// flag writes must be on the flagless list.
func TestEveryKnobHasOneFlag(t *testing.T) {
	cfg := DefaultRegionConfig()
	fs := flag.NewFlagSet("region", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg.RegisterFlags(fs)

	writer := map[string]string{} // field → the flag that writes it
	fs.VisitAll(func(f *flag.Flag) {
		before := leaves(cfg)
		var moved []string
		for _, v := range []string{"true", "false", "7", "1.5", "3m7s", "elsewhere"} {
			if fs.Set(f.Name, v) != nil {
				continue
			}
			for name, now := range leaves(cfg) {
				if !reflect.DeepEqual(before[name], now) {
					moved = append(moved, name)
				}
			}
			if len(moved) > 0 {
				break
			}
		}
		if len(moved) != 1 {
			t.Errorf("-%s writes %d fields %v, want exactly one", f.Name, len(moved), moved)
			return
		}
		if other, dup := writer[moved[0]]; dup {
			t.Errorf("-%s and -%s both write %s", other, f.Name, moved[0])
		}
		writer[moved[0]] = f.Name
	})

	fields := leaves(cfg)
	for name := range fields {
		_, flagged := writer[name]
		reason, listed := flagless[name]
		switch {
		case flagged && listed:
			t.Errorf("%s has flag -%s and is listed flagless (%s)", name, writer[name], reason)
		case !flagged && !listed:
			t.Errorf("%s is set by no flag; register one in RegisterFlags or give the reason in flagless", name)
		}
	}
	for name := range flagless {
		if _, ok := fields[name]; !ok {
			t.Errorf("flagless lists %s, which RegionConfig no longer has", name)
		}
	}
}
