package spec

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Set applies one dotted-path patch of the form "section.field=value", where
// path components are the JSON names of the spec tree:
//
//	frontend.fetch_queue_size=64
//	companion.tea.fill_buf_size=1024
//	predictor.tage_hist_lens=4,8,13,22
//	companion.kind=runahead
//
// Setting companion.kind also reshapes the companion: "tea" installs
// DefaultTEA (keeping an existing tea section), "runahead" installs
// DefaultRunahead, "none" clears every companion field. Patches are applied
// in order, so later patches can refine the section a kind change installed.
// The result is not validated; call Validate after the last patch.
func (s *MachineSpec) Set(patch string) error {
	path, value, ok := strings.Cut(patch, "=")
	if !ok {
		return fmt.Errorf("spec: patch %q is not of the form section.field=value", patch)
	}
	path = strings.TrimSpace(path)
	value = strings.TrimSpace(value)

	// companion.kind reshapes the tree; handle it before generic traversal.
	if path == "companion.kind" {
		return s.setKind(value)
	}

	v := reflect.ValueOf(s).Elem()
	walked := ""
	for _, name := range strings.Split(path, ".") {
		if name == "" {
			return fmt.Errorf("spec: patch path %q has an empty component", path)
		}
		// Follow pointers (companion.tea, companion.runahead), erroring on
		// nil sections with a hint instead of a panic.
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return fmt.Errorf("spec: %s is not populated (set companion.kind first)", walked)
			}
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			return fmt.Errorf("spec: %s is a value, not a section; cannot descend into %q", walked, name)
		}
		field, ok := fieldByJSONName(v, name)
		if !ok {
			return fmt.Errorf("spec: unknown field %q under %q (known: %s)",
				name, orRoot(walked), strings.Join(jsonNames(v), ", "))
		}
		v = field
		if walked == "" {
			walked = name
		} else {
			walked += "." + name
		}
	}
	if v.Kind() == reflect.Pointer || v.Kind() == reflect.Struct {
		return fmt.Errorf("spec: %s is a section, not a field; pick one of: %s",
			walked, strings.Join(jsonNames(deref(v)), ", "))
	}
	if err := assign(v, value); err != nil {
		return fmt.Errorf("spec: %s: %w", walked, err)
	}
	return nil
}

// setKind switches the companion scheme through the kind registry: the
// outgoing kind's section is cleared, engine shape fields are reset unless
// the new kind uses them, and the new kind's default section is installed
// (keeping an existing section of the same kind) so follow-up patches have
// something to refine.
func (s *MachineSpec) setKind(value string) error {
	info, ok := LookupKind(CompanionKind(value))
	if !ok {
		return fmt.Errorf("spec: companion.kind %q unknown (registered kinds: %s)", value, kindList())
	}
	c := &s.Companion
	c.Kind = info.Kind
	for _, k := range kindOrder {
		if other := kindRegistry[k]; other.Kind != info.Kind && other.Clear != nil {
			other.Clear(c)
		}
	}
	if !info.Engine {
		c.Dedicated, c.Ports, c.NoPriority = false, 0, false
	}
	if info.Install != nil && !info.Has(c) {
		info.Install(c)
	}
	return nil
}

// assign parses value into the addressable leaf v.
func assign(v reflect.Value, value string) error {
	switch v.Kind() {
	case reflect.Int:
		n, err := strconv.ParseInt(value, 0, 64)
		if err != nil {
			return fmt.Errorf("want an integer, got %q", value)
		}
		v.SetInt(n)
	case reflect.Uint8, reflect.Uint64:
		n, err := strconv.ParseUint(value, 0, v.Type().Bits())
		if err != nil {
			return fmt.Errorf("want an unsigned integer, got %q", value)
		}
		v.SetUint(n)
	case reflect.Bool:
		b, err := strconv.ParseBool(value)
		if err != nil {
			return fmt.Errorf("want true or false, got %q", value)
		}
		v.SetBool(b)
	case reflect.String:
		v.SetString(value)
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Uint32 {
			return fmt.Errorf("unsupported slice type %s", v.Type())
		}
		parts := strings.Split(value, ",")
		lens := make([]uint32, 0, len(parts))
		for _, p := range parts {
			n, err := strconv.ParseUint(strings.TrimSpace(p), 0, 32)
			if err != nil {
				return fmt.Errorf("want a comma-separated integer list, got %q", value)
			}
			lens = append(lens, uint32(n))
		}
		v.Set(reflect.ValueOf(lens))
	default:
		return fmt.Errorf("unsupported field type %s", v.Type())
	}
	return nil
}

// fieldByJSONName finds the addressable struct field whose json tag matches.
func fieldByJSONName(v reflect.Value, name string) (reflect.Value, bool) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if jsonName(t.Field(i)) == name {
			return v.Field(i), true
		}
	}
	return reflect.Value{}, false
}

// jsonNames lists a struct's field names as they appear in patch paths.
func jsonNames(v reflect.Value) []string {
	if v.Kind() != reflect.Struct {
		return nil
	}
	t := v.Type()
	names := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if n := jsonName(t.Field(i)); n != "" {
			names = append(names, n)
		}
	}
	return names
}

func jsonName(f reflect.StructField) string {
	tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return tag
}

func deref(v reflect.Value) reflect.Value {
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		return v.Elem()
	}
	return v
}

func orRoot(path string) string {
	if path == "" {
		return "the spec root"
	}
	return path
}
