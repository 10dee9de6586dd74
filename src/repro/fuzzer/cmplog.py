"""Input-to-state mutation (a cmplog/RedQueen analogue).

The paper enables AFL++'s cmplog instrumentation for every fuzzer
configuration.  Our VM can execute a test case with comparison logging; the
harvested operand pairs — integer comparisons and ``memcmp`` byte windows —
drive direct substitutions: wherever one operand's encoding occurs in the
input, the other operand is patched in.  This solves magic-number and
keyword checks without symbolic execution, matching the "input-to-state
correspondence" of Redqueen (NDSS'19) in spirit.
"""

_WIDTHS = (1, 2, 4, 8)


def _encodings(value):
    """``(big, little)`` byte encodings of an integer operand, one per width.

    A width's two byte orders coincide for one-byte and palindromic values;
    the caller then searches for (and patches in) only one of them.
    """
    result = []
    for width in _WIDTHS:
        masked = value & ((1 << (8 * width)) - 1)
        result.append((masked.to_bytes(width, "big"), masked.to_bytes(width, "little")))
    return result


def _substitutions(data, pattern, replacement, cap):
    """Inputs with each occurrence of ``pattern`` replaced by ``replacement``."""
    if not pattern or len(pattern) != len(replacement):
        return []
    out = []
    start = 0
    while len(out) < cap:
        pos = data.find(pattern, start)
        if pos < 0:
            break
        out.append(data[:pos] + replacement + data[pos + len(pattern) :])
        start = pos + 1
    return out


def candidates_from_log(data, cmp_log, max_candidates=64):
    """Derive substitution candidates for ``data`` from a comparison log.

    ``cmp_log`` holds ``(a, b)`` pairs: two ints (scalar comparisons) or two
    bytes objects (memcmp windows).  For every pair, occurrences of one
    side's encoding in ``data`` are patched to the other side.  Deduplicated
    and capped to keep the stage's execution budget bounded.
    """
    seen = set()
    seen_pairs = set()
    encodings = {}  # operand -> _encodings(operand), computed once per operand
    out = []

    def add(pattern, replacements, cap):
        # False once the cap is reached: derivation stops there.
        if pattern not in data:
            return True
        for replacement in replacements:
            for cand in _substitutions(data, pattern, replacement, cap):
                if cand not in seen and cand != data:
                    seen.add(cand)
                    out.append(cand)
                    if len(out) >= max_candidates:
                        return False
        return True

    for a, b in cmp_log:
        if len(out) >= max_candidates:
            break
        # A seed that loops over a comparison logs the same operand pair on
        # every iteration; each duplicate would re-derive an identical
        # candidate set (all already in ``seen``).  Skipping by normalized
        # pair key changes nothing in the output — both directions are
        # tried symmetrically below — and cuts the stage's derivation work.
        if isinstance(a, (int, bytes)) and type(a) is type(b):
            key = (a, b) if a <= b else (b, a)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
        if isinstance(a, bytes):
            if not (add(a, (b,), 4) and add(b, (a,), 4)):
                return out
        elif a != b:
            for value in (a, b):
                if value not in encodings:
                    encodings[value] = _encodings(value)
            # Patching in the second byte order of a width whose two orders
            # coincide would only re-derive candidates already seen.
            for pattern, replacement in ((a, b), (b, a)):
                for (big, little), (rep_big, rep_little) in zip(
                    encodings[pattern], encodings[replacement]
                ):
                    repls = (rep_big,) if rep_big == rep_little else (rep_big, rep_little)
                    if not add(big, repls, 2):
                        return out
                    if little != big and not add(little, repls, 2):
                        return out
    return out
