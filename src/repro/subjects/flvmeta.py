"""Subject ``flvmeta`` — an FLV metadata extractor lookalike.

Parses the FLV container: a signature header, then a sequence of tags
(audio / video / script-data) each carrying a 24-bit payload size.  Two
planted defects: a truncated-tag read past the buffer, and a script-data
string copy that trusts the encoded length.
"""

from repro.subjects.base import Subject, make_bug

SOURCE = """\
fn read24(buf, off) {
    var hi = buf[off];
    var mid = buf[off + 1];
    var lo = buf[off + 2];
    return (hi << 16) + (mid << 8) + lo;
}

fn parse_script_data(input, off, size) {
    // AMF-ish: [type byte][u16 name length][name bytes]...
    if (size < 3) { return 0; }
    var kind = input[off];
    if (kind != 2) { return 0; }
    var namelen = (input[off + 1] << 8) + input[off + 2];
    var name = alloc(32);
    // BUG: copies namelen bytes into a 32-byte buffer
    copy(name, 0, input, off + 3, namelen);
    return name[0] + namelen;
}

fn parse_tag(input, off, n) {
    var kind = input[off];
    var size = read24(input, off + 1);
    var body = off + 11;
    if (kind == 8) {
        // audio: first payload byte encodes format/rate
        var hdr = input[body];            // BUG: no check body < n
        return 11 + size;
    }
    if (kind == 9) {
        if (body + size > n) { return 0 - 1; }
        if (size < 1) { return 0 - 1; }
        var frame = input[body] >> 4;
        if (frame > 5) { return 0 - 1; }
        return 11 + size;
    }
    if (kind == 18) {
        if (body + size > n) { return 0 - 1; }
        parse_script_data(input, body, size);
        return 11 + size;
    }
    return 0 - 1;
}

fn main(input) {
    var n = len(input);
    if (n < 13) { return 0; }
    if (memcmp(input, 0, "FLV", 0, 3) != 0) { return 1; }
    if (input[3] != 1) { return 2; }
    var flags = input[4];
    var pos = 13;
    var tags = 0;
    while (pos + 11 <= n) {
        var advance = parse_tag(input, pos, n);
        if (advance < 0) { break; }
        pos = pos + advance + 4;
        tags = tags + 1;
        if (tags > 64) { break; }
    }
    return tags;
}
"""


def _header():
    return b"FLV\x01\x05\x00\x00\x00\x09" + b"\x00\x00\x00\x00"


def _tag(kind, payload):
    size = len(payload)
    return bytes([kind, (size >> 16) & 0xFF, (size >> 8) & 0xFF, size & 0xFF]) + (
        b"\x00" * 7
    ) + payload + b"\x00\x00\x00\x00"


SEEDS = [
    _header() + _tag(9, b"\x12small video payload"),
    _header() + _tag(18, b"\x02\x00\x04nameXYZ"),
    _header() + _tag(9, b"\x10") + _tag(9, b"\x20abc"),
]

TOKENS = [b"FLV\x01", b"\x12", b"\x02"]


def build():
    # Audio tag whose declared body starts past the end of the buffer.
    truncated = _header() + bytes([8, 0, 0, 4]) + b"\x00" * 7
    truncated = truncated[: len(_header()) + 11]  # cut exactly at body start
    # Script tag declaring a 60-byte name into the 32-byte buffer.
    payload = b"\x02\x00\x3c" + b"N" * 60
    overflow = _header() + _tag(18, payload)
    # Found by a concolic campaign: a name length that fits the buffer but
    # runs past the end of the input.
    name_cut = bytes.fromhex(
        "464c56010500000009000000001200000ae2ff00000000000200126e646d6558595a0000120000"
    )
    return Subject(
        name="flvmeta",
        source=SOURCE,
        seeds=SEEDS,
        bugs=[
            make_bug(
                "parse_tag",
                26,
                "heap-buffer-overflow-read",
                "audio tag header read without checking the body offset",
                truncated,
                difficulty="shallow",
            ),
            make_bug(
                "parse_script_data",
                16,
                "heap-buffer-overflow-write",
                "script-data name copy trusts the encoded length",
                overflow,
                difficulty="medium",
            ),
            make_bug(
                "parse_script_data",
                16,
                "heap-buffer-overflow-read",
                "script-data name copy reads past the end of the input",
                name_cut,
                difficulty="shallow",
            ),
        ],
        tokens=TOKENS,
        max_input_len=192,
        exec_instr_budget=20_000,
        description="FLV tag walker with AMF-ish script data",
    )
