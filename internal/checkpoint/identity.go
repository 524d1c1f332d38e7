package checkpoint

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Identity encodes v canonically as the space-separated path=value tokens a
// checkpoint's meta string is built from: every struct field, exported or
// not, in declaration order, named by its dotted path under prefix. Pointers
// encode by content (nil as "nil"), never by address; slices and arrays by
// length and elements. Kinds with no canonical encoding — maps (unordered),
// funcs, chans, interfaces — panic, so a configuration type cannot grow a
// field the identity silently ignores.
func Identity(prefix string, v any) string {
	var toks []string
	identity(&toks, prefix, reflect.ValueOf(v))
	return strings.Join(toks, " ")
}

func identity(toks *[]string, path string, v reflect.Value) {
	leaf := func(s string) { *toks = append(*toks, path+"="+s) }
	switch v.Kind() {
	case reflect.Bool:
		leaf(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		leaf(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		leaf(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		leaf(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		leaf(strconv.Quote(v.String()))
	case reflect.Pointer:
		if v.IsNil() {
			leaf("nil")
		} else {
			identity(toks, path, v.Elem())
		}
	case reflect.Slice, reflect.Array:
		leaf("len:" + strconv.Itoa(v.Len()))
		for i := 0; i < v.Len(); i++ {
			identity(toks, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Struct:
		if path != "" {
			path += "."
		}
		for i := 0; i < v.NumField(); i++ {
			identity(toks, path+v.Type().Field(i).Name, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("checkpoint: identity cannot encode %s (%s) canonically", path, v.Type()))
	}
}

// IdentityDiff lists the tokens two identity strings disagree on, for a
// readable refusal message: "-" tokens only a, "+" tokens only b. At most
// limit tokens per side are listed.
func IdentityDiff(a, b string, limit int) string {
	only := func(x, y string) []string {
		in := map[string]bool{}
		for _, t := range strings.Fields(y) {
			in[t] = true
		}
		var out []string
		for _, t := range strings.Fields(x) {
			if !in[t] {
				out = append(out, t)
			}
		}
		if len(out) > limit {
			out = append(out[:limit], fmt.Sprintf("… (%d more)", len(out)-limit))
		}
		return out
	}
	var sb strings.Builder
	for _, t := range only(a, b) {
		fmt.Fprintf(&sb, "  - %s\n", t)
	}
	for _, t := range only(b, a) {
		fmt.Fprintf(&sb, "  + %s\n", t)
	}
	return sb.String()
}
