"""Subject ``imginfo`` — a JasPer-style image metadata reporter lookalike.

Scans JPEG-2000-ish marker structure and reports component geometry.  Two
planted defects (the paper's imginfo yields 2-3): a component-count table
overflow and a precision shift out of range.
"""

from repro.subjects.base import Subject, make_bug

SOURCE = """\
fn read_u16(buf, off) {
    return (buf[off] << 8) + buf[off + 1];
}

fn parse_siz(input, off, n) {
    if (off + 12 > n) { return 0 - 1; }
    var width = read_u16(input, off);
    var height = read_u16(input, off + 2);
    var ncomp = read_u16(input, off + 4);
    var comps = alloc(8);
    for (var c = 0; c < ncomp; c = c + 1) {
        comps[c] = input[off + 6 + c];     // BUG: ncomp unchecked vs 8
    }
    var prec = input[off + 6];
    var span = 1 << prec;                  // BUG: prec > 63 shift trap
    if (width == 0) { return 0 - 1; }
    return (height * span) / width;
}

fn scan_markers(input, n) {
    var pos = 2;
    var geometry = 0;
    var markers = 0;
    while (pos + 4 <= n) {
        if (input[pos] != 0xff) { return geometry; }
        var kind = input[pos + 1];
        var seglen = read_u16(input, pos + 2);
        if (seglen < 2) { return 0 - 2; }
        if (kind == 0x51) {
            geometry = parse_siz(input, pos + 4, n);
        }
        if (kind == 0xd9) { break; }
        pos = pos + 2 + seglen;
        markers = markers + 1;
        if (markers > 32) { break; }
    }
    return geometry;
}

fn main(input) {
    var n = len(input);
    if (n < 6) { return 0; }
    if (input[0] != 0xff) { return 1; }
    if (input[1] != 0x4f) { return 1; }
    return scan_markers(input, n);
}
"""


def _seg(kind, payload):
    seglen = len(payload) + 2
    return bytes([0xFF, kind, (seglen >> 8) & 0xFF, seglen & 0xFF]) + payload


MAGIC = b"\xff\x4f"


def _siz(width, height, ncomp, rest=b""):
    payload = bytes(
        [
            (width >> 8) & 0xFF,
            width & 0xFF,
            (height >> 8) & 0xFF,
            height & 0xFF,
            (ncomp >> 8) & 0xFF,
            ncomp & 0xFF,
        ]
    ) + rest
    return _seg(0x51, payload)


SEEDS = [
    MAGIC + _siz(64, 64, 3, b"\x08\x08\x08\x00\x00\x00"),
    MAGIC + _siz(16, 32, 1, b"\x04" + b"\x00" * 8),
    MAGIC + _siz(8, 8, 2, b"\x05\x06" + b"\x00" * 6),
]

TOKENS = [b"\xff\x4f", b"\xff\xd9", b"\xff\x51"]


def build():
    many_comps = MAGIC + _siz(4, 4, 20, b"\x01" * 24)
    big_prec = MAGIC + _siz(4, 4, 1, b"\xc8" + b"\x00" * 10)
    # Found by a path campaign: a SIZ segment cut short of its components.
    siz_cut = bytes.fromhex("ff4fff51000e004000400100080808000000")
    return Subject(
        name="imginfo",
        source=SOURCE,
        seeds=SEEDS,
        bugs=[
            make_bug(
                "parse_siz", 12, "heap-buffer-overflow-write",
                "component loop trusts the declared component count",
                many_comps, difficulty="medium",
            ),
            make_bug(
                "parse_siz", 15, "shift-out-of-range",
                "precision byte used directly as a shift amount",
                big_prec, difficulty="medium",
            ),
            make_bug(
                "parse_siz", 12, "heap-buffer-overflow-read",
                "component loop reads past the end of a truncated SIZ",
                siz_cut, difficulty="shallow",
            ),
        ],
        tokens=TOKENS,
        max_input_len=160,
        exec_instr_budget=20_000,
        description="JPEG-2000-ish marker scanner with SIZ geometry",
    )
