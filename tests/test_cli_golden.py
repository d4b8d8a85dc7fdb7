"""Golden CLI outputs: exit code, exact stderr and sha256 of stdout for every
subcommand in every format, including each documented error exit.

The expected values were recorded from the CLI and pin its observable
behaviour byte for byte; a change to any rendering or error path shows up
here as a digest or stderr mismatch.
"""

import hashlib
import io
import json
import math
import random
import sys

import pytest

from k3fm.cli import main

IDENTITY = json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
IDENTITY_INTS = json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
# represent(base_element(6, 2)) and al_to_json(base_element(30, 5)).
W2_AT_6 = json.dumps([["2", "12", "3"], ["1", "7", "2"], ["3", "24", "8"]])
W5_AT_30 = json.dumps({"d": "30", "s": "5", "abce": ["5", "4", "1", "1"]})
# Swapping e0 and e4 preserves the Gram form but lifts no coset element.
SWAP = json.dumps([["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]])
NOT_ISOMETRY = json.dumps([["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])

# (argv, stdin, exit code, stderr, sha256 of stdout).  The verify-fails-*
# cases run with verify's defect bound patched to 1e-300 (see test_cli_golden).
CASES = {
    'table-json': (
        'table --d-min 1 --d-max 30 --format json', None, 0, '',
        'aa366e8935ceab0d9cc6dc95ac01c685129126bd3ec1cc4b4a9f233dd78dc7d3'),
    'table-large-json': (
        'table --d-min 999990 --d-max 1000010 --format json', None, 0, '',
        'bc57c049f09365a274703b8d0186ade14c1cfe129038d4817a94f05ccf905114'),
    'table-primorial-json': (
        'table --d-min 9699680 --d-max 9699700 --format json', None, 0, '',
        '0cd593938b21de3e33c811678f6a84c978ead51deb61b931308c7c04f631b9d5'),
    'partners-1-json': (
        'partners --d 1 --format json', None, 0, '',
        '490315c227eace9b0c36a2e9f950a0486bd959ff3d508ebb6b7d0c0e43f034ea'),
    'partners-6-json': (
        'partners --d 6 --format json', None, 0, '',
        '648b2537b6616ec0b640a4554b11fe5d4777f0722f445e3bf5e2b894622a9aaf'),
    'partners-30-json': (
        'partners --d 30 --format json', None, 0, '',
        '084213c11de28cdf9adf3f0ff49163fce11f4a1fd01432590ec47338158575d8'),
    'partners-9699690-json': (
        'partners --d 9699690 --format json', None, 0, '',
        '99af0254dfa1395d94b3c70467b783c2d6e70e67e5d9559ef4bd47fd6be7fe15'),
    'partners-614889782588491410-json': (
        'partners --d 614889782588491410 --format json', None, 0, '',
        'cff838a2bb20530cbad70c2414e6a1fd05e609aaa3004f77a53eb145e7219a96'),
    'partners-1099503239183-json': (
        'partners --d 1099503239183 --format json', None, 0, '',
        '10f2c5259fd0093ea7733fe2651edb3647272c4c566c07fd97127b4c82bb03f2'),
    'partners-1099503239183-csv': (
        'partners --d 1099503239183 --format csv', None, 0, '',
        'ae9e92d51d0ec7bd73e08fd89be8a4613071bacd23200b2ca7561c8d925c43bd'),
    'partners-1099503239183-text': (
        'partners --d 1099503239183 --format text', None, 0, '',
        'c8aa2c069e6d8861cdc879619993bb4cae5d75349487162b7e762616004a1087'),
    'partners-d-2-64': (
        'partners --d 18446744073709551616', None, 2, 'error: d must be below 2**64, got 18446744073709551616\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'table-d-2-64': (
        'table --d-min 18446744073709551616 --d-max 18446744073709551616', None, 2, 'error: d must be below 2**64, got 18446744073709551616\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-d-2-64': (
        'verify --d-min 18446744073709551616 --d-max 18446744073709551616 --samples 1', None, 2, 'error: d must be below 2**64, got 18446744073709551616\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-identity-json': (
        'classify --d 6 --format json', IDENTITY, 0, '',
        '4a01dc7b792398973e51f4d2f24aa9450559423b1a1de8463a2db1ecb517cc65'),
    'classify-w2-json': (
        'classify --d 6 --format json', W2_AT_6, 0, '',
        '8b023207e6169e02b69951cde77ca36ccfbf2e23a1a24a45ef844aad4b060c6f'),
    'classify-element-json': (
        'classify --format json', W5_AT_30, 0, '',
        '14d572b63872e03ec8756e8274b9406227ae7793ab3e087a8b9b55f314c8c3df'),
    'verify-json': (
        'verify --d-min 1 --d-max 6 --samples 3 --format json', None, 0, '',
        '3b58f14e599975ce08dc9c5bb461e2762870e92524dbff102673ccb89f377072'),
    'verify-fails-json': (
        'verify --d-min 1 --d-max 6 --samples 5 --seed 7 --format json', None, 1, '',
        '3798b05c4ee378c87c78eaaeb40e41ec207c663000330b8d8c9632a0bb6a27a9'),
    'verify-2310-json': (
        'verify --d-min 2310 --d-max 2310 --samples 2 --format json', None, 0, '',
        '86a4901e3237b74215a8361cc93ad0916bf4cb17ea5a51a37125102530227c0c'),
    # Levels of omega 7 and 8, where the sampler's coprimality loop repeats
    # most and a level has more cosets than small runs touch.  Like
    # verify-2310-*, they pass the charge verdict only because it is decided
    # exactly: the float charge product they report cancels catastrophically
    # at large d and lies far above the fixed 1e-9.
    'verify-510510-json': (
        'verify --d-min 510510 --d-max 510510 --samples 2 --seed 3 --format json', None, 0, '',
        'cfd8876bb028eec0e45ece5c35aa2271844f88cbd0dc4fdecc138f398b13de6c'),
    'verify-9699690-json': (
        'verify --d-min 9699690 --d-max 9699690 --samples 2 --seed 3 --format json', None, 0, '',
        '928b765c14a046e57c75a88de03699392fa810e6488982a4bd2958ba0bdce601'),
    # One level whose three-term equivariance sums round differently under
    # a compensated float sum(); test_verify_bytes_do_not_follow_sum runs it
    # with one.
    'verify-52-json': (
        'verify --d-min 52 --d-max 52 --samples 3', None, 0, '',
        'dca1dba386bfc678c2ac78c4e908d63220bb912c7d05397d8290b70a88c8a71a'),
    # Sixty levels, each factorized once per pass and looked up again by
    # the census right after the window yields it.
    'verify-60-json': (
        'verify --d-min 1 --d-max 60 --samples 2 --format json', None, 0, '',
        '8b38e01e992ef887c74fffd758c21c889000331d1557ca2bfd6d53bf79010671'),
    'table-csv': (
        'table --d-min 1 --d-max 30 --format csv', None, 0, '',
        'a0fec094e6c64c0c5257660fa8d030e4643e139c9d652fa3e56062c3a2504ae2'),
    'table-large-csv': (
        'table --d-min 999990 --d-max 1000010 --format csv', None, 0, '',
        'c6f111d069b02f8f322f72339c1a242e07a4a9da089c92cac2fb3ddb3c8261e2'),
    'table-primorial-csv': (
        'table --d-min 9699680 --d-max 9699700 --format csv', None, 0, '',
        '6e6ae36ee18863f459bb25566328bbac5cc3318c7642eb689b2b80ddfc05b309'),
    'table-window-2-22-csv': (
        'table --d-min 4194204 --d-max 4194404 --format csv', None, 0, '',
        '9d592c3728c591ed32eda5cbe02ff30ffc4b4bbcd78cd39deaab21aff2634722'),
    'table-below-2-64-csv': (
        'table --d-min 18446744073709551596 --d-max 18446744073709551615 --format csv', None, 0, '',
        '1a94850699de00617cf1674a720445357495838ee0df91e90b241abaaa359138'),
    'partners-1-csv': (
        'partners --d 1 --format csv', None, 0, '',
        'aa9e2ca85aa6a2bd18d5cb95126923415e2c8a35cfc3eb34ab9b079e97eaeca7'),
    'partners-6-csv': (
        'partners --d 6 --format csv', None, 0, '',
        'c1c832cdb83e0d28b74ee7793020eaac986454a763d87d3d1b3fcec7a101888b'),
    'partners-30-csv': (
        'partners --d 30 --format csv', None, 0, '',
        'b34bc98c3c70aacb4a62cb4dad4843741e64c9137cb4a68f7f5337b29d701b04'),
    'partners-9699690-csv': (
        'partners --d 9699690 --format csv', None, 0, '',
        'c095a5e2f9b99f524e11d3573806b712b614e4154edd4db11ec748521d77da78'),
    'classify-identity-csv': (
        'classify --d 6 --format csv', IDENTITY, 0, '',
        'da3b15213b237f6fef439a7fac13015252def818fc2e88cea6198d97b5059ce2'),
    'classify-w2-csv': (
        'classify --d 6 --format csv', W2_AT_6, 0, '',
        'd90f3810b1515288e99f7337e533a79351785e48b627eb7f1607f8490c9de810'),
    'classify-element-csv': (
        'classify --format csv', W5_AT_30, 0, '',
        'ffef15d272fa44e49996d07e572417bc349c707f3e2f39072b274c3683aafb41'),
    'verify-csv': (
        'verify --d-min 1 --d-max 6 --samples 3 --format csv', None, 0, '',
        'b3b0063699029ad214c45feecb740b5755ae0ee7e9e4e568824bc2c2cdc612d8'),
    'verify-fails-csv': (
        'verify --d-min 1 --d-max 6 --samples 5 --seed 7 --format csv', None, 1, '',
        '47e3cd9e6e4dfc4fdd4868bc13a0a0b8e64a82d42d791d24acf5c193da59d3bd'),
    'verify-2310-csv': (
        'verify --d-min 2310 --d-max 2310 --samples 2 --format csv', None, 0, '',
        '091fc62170c88b4df812db121eba131a08a9ad1e3c1e61a9b1005d235c521150'),
    'verify-60-csv': (
        'verify --d-min 1 --d-max 60 --samples 2 --format csv', None, 0, '',
        '9cb1ceb44f9a78dafd514e3b381310a1b7f9787e787dd7d27eb8c7b6e2bca690'),
    'table-text': (
        'table --d-min 1 --d-max 30 --format text', None, 0, '',
        'b64be1bb00fd6dedf3188bcc52d7f158f4765fda969b333fed0dee21c5f53c27'),
    'table-large-text': (
        'table --d-min 999990 --d-max 1000010 --format text', None, 0, '',
        'd918b899d712d5ea39d817e5e961088deec854c6e0eb36ee32f9d2b95dea384d'),
    'partners-1-text': (
        'partners --d 1 --format text', None, 0, '',
        '1cad3912b9a51786ae54434957adcfb409114a751a86be2becac7e8b0fb94cb5'),
    'partners-6-text': (
        'partners --d 6 --format text', None, 0, '',
        '6345056a9ecb501b7480bf8d885580913fb3074d8444421126537e5f8a1a1f5b'),
    'partners-30-text': (
        'partners --d 30 --format text', None, 0, '',
        '53f479a98235c6d612f15b188b2716c3f81c837968a13e64855137bc297cccba'),
    'partners-9699690-text': (
        'partners --d 9699690 --format text', None, 0, '',
        '8442631a3ab4e0e6be3d95219052b5f9d21802eca4946e199ed6aa8b3e506463'),
    'classify-identity-text': (
        'classify --d 6 --format text', IDENTITY, 0, '',
        'a27036e49861c0ea4a5ac74c3f3ee05ab30e2fa4e15fb3749c1679a85a59309a'),
    'classify-w2-text': (
        'classify --d 6 --format text', W2_AT_6, 0, '',
        '083603a689c2b64756991bff194f3d74342cde9b1fc7440040f186efafed5eb7'),
    'classify-element-text': (
        'classify --format text', W5_AT_30, 0, '',
        'd2379040affc248658bf5deee4f494d0c9cd02cde13d116d4c230c57db670535'),
    'verify-text': (
        'verify --d-min 1 --d-max 6 --samples 3 --format text', None, 0, '',
        '2a0f5d4eb2166a71456dfbdd45d72d0770b070f98f930e4ac99f1e8d40df02c8'),
    'verify-fails-text': (
        'verify --d-min 1 --d-max 6 --samples 5 --seed 7 --format text', None, 1, '',
        '45229cf5319f8417b869e2b8a44e0b0322e02fab38ca617d7cb99a29afb77f25'),
    'verify-2310-text': (
        'verify --d-min 2310 --d-max 2310 --samples 2 --format text', None, 0, '',
        '263603f9996f7cd31a04bad360bd6234a56efb5b61e25e0d0b54a3e4e75cdb63'),
    'verify-60-text': (
        'verify --d-min 1 --d-max 60 --samples 2 --format text', None, 0, '',
        '5ec5ad26b7f22cf681750e8137ca74313488480abae2b081accc080815744ae2'),
    'classify-int-entries': (
        'classify --d 6', IDENTITY_INTS, 0, '',
        '4a01dc7b792398973e51f4d2f24aa9450559423b1a1de8463a2db1ecb517cc65'),
    'classify-element-matching-d': (
        'classify --d 30', W5_AT_30, 0, '',
        '14d572b63872e03ec8756e8274b9406227ae7793ab3e087a8b9b55f314c8c3df'),
    'table-bad-range': (
        'table --d-min 5 --d-max 2', None, 2, 'error: invalid range [5, 2]\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'table-d-min-0': (
        'table --d-min 0 --d-max 3', None, 2, 'error: invalid range [0, 3]\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'partners-d-0': (
        'partners --d 0', None, 2, 'error: d must be positive, got 0\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-bad-range': (
        'verify --d-min 9 --d-max 2', None, 2, 'error: invalid range [9, 2]\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-d-min-0': (
        'verify --d-min 0', None, 2, 'error: invalid range [0, 50]\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-samples-0': (
        'verify --samples 0', None, 2, 'error: samples per coset must be at least 1\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-too-many-samples': (
        'verify --d-max 1 --samples 100000', None, 2, 'error: verify samples at most 65536 coset elements (samples x 2**omega(d) over the levels), got at least 100000\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-negative-seed': (
        'verify --d-max 6 --samples 2 --seed -5', None, 2, 'error: seed must be non-negative, got -5\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-bad-format': (
        'verify --format yaml', None, 2, "usage: k3fm verify [-h] [--d-min D_MIN] [--d-max D_MAX] [--samples SAMPLES]\n                   [--seed SEED] [--format {json,csv,text}]\nk3fm verify: error: argument --format: invalid choice: 'yaml' (choose from 'json', 'csv', 'text')\n",
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'unknown-subcommand': (
        'frobnicate', None, 2, "usage: k3fm [-h] {table,partners,classify,verify} ...\nk3fm: error: argument command: invalid choice: 'frobnicate' (choose from 'table', 'partners', 'classify', 'verify')\n",
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-needs-d': (
        'classify', IDENTITY, 2, 'error: 3x3 input requires --d\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-not-isometry': (
        'classify --d 6', NOT_ISOMETRY, 3, 'error: not classifiable: matrix does not preserve the Gram form\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-not-in-image': (
        'classify --d 6', SWAP, 3, 'error: not classifiable: entry pattern matches no Atkin-Lehner coset\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-bad-determinant': (
        'classify', '{"d": "6", "s": "2", "abce": ["1", "1", "1", "1"]}', 3, 'error: not classifiable: a*e*s - b*c*(d/s) = -1 != 1 for (d,s,a,b,c,e)=(6,2,1,1,1,1)\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-bad-level': (
        'classify', '{"d": "6", "s": "4", "abce": ["1", "0", "0", "1"]}', 3, 'error: not classifiable: s=4 is not an exact divisor of d=6\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-broken-json': (
        'classify --d 6', '{broken', 4, 'error: input is not JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-missing-abce': (
        'classify', '{"d": "6", "s": "2"}', 4, 'error: malformed input: expected an element object or a 3x3 array\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-scalar': (
        'classify --d 6', '5', 4, 'error: malformed input: expected an element object or a 3x3 array\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-d-contradicts': (
        'classify --d 5', W5_AT_30, 4, 'error: malformed input: --d 5 contradicts encoded d=30\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-bad-rational': (
        'classify --d 6', '[["x", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]', 4, "error: malformed input: malformed rational entry: Invalid literal for Fraction: 'x'\n",
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-bool-entry': (
        'classify --d 6', '[[true, 0, 0], [0, 1, 0], [0, 0, 1]]', 4, "error: malformed input: malformed rational entry: Invalid literal for Fraction: 'True'\n",
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-loose-exponent': (
        'classify --d 1', '[["1e0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]', 4, "error: malformed input: malformed rational entry: Invalid literal for Fraction: '1e0'\n",
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-loose-fullwidth-digit': (
        'classify --d 1', '[["１", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]', 4, "error: malformed input: malformed rational entry: Invalid literal for Fraction: '１'\n",
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-loose-underscore': (
        'classify --d 1', '[["7_0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]', 4, "error: malformed input: malformed rational entry: Invalid literal for Fraction: '7_0'\n",
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-wrong-shape': (
        'classify --d 6', '[["1", "0"], ["0", "1"]]', 4, 'error: malformed input: expected a 3x3 array\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-missing-file': (
        'classify --d 6 no/such/input.json', None, 4, "error: cannot read input: [Errno 2] No such file or directory: 'no/such/input.json'\n",
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-element-int-fields': (
        'classify', '{"d": 30, "s": 5, "abce": [5, 4, 1, 1]}', 0, '',
        '14d572b63872e03ec8756e8274b9406227ae7793ab3e087a8b9b55f314c8c3df'),
    'classify-element-negative-string': (
        'classify', '{"d": "2", "s": "2", "abce": ["0", "-1", "1", "0"]}', 0, '',
        'a3b5081d2418c4f87ce0dcd56555a71d70ccc43cca3dd985c6ffbbee34536f3f'),
    'classify-element-float': (
        'classify', '{"d": 6.9, "s": "2", "abce": [2.5, 1, true, 1]}', 4, 'error: malformed input: malformed element encoding: expected an integer or a decimal-integer string, got 6.9\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-element-bool': (
        'classify', '{"d": "6", "s": "2", "abce": ["2", "1", true, "1"]}', 4, 'error: malformed input: malformed element encoding: expected an integer or a decimal-integer string, got True\n',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classify-element-underscore': (
        'classify', '{"d": "30", "s": "0_5", "abce": ["5", "4", "1", "1"]}', 4, "error: malformed input: malformed element encoding: expected an integer or a decimal-integer string, got '0_5'\n",
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


def _set_columns(monkeypatch, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)  # argparse wraps usage to this width


def _run(capsys, monkeypatch, argv, stdin, columns="80"):
    _set_columns(monkeypatch, columns)
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv.split())
    captured = capsys.readouterr()
    return code, captured.err, hashlib.sha256(captured.out.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, capsys, monkeypatch):
    argv, stdin, code, err, digest = CASES[case]
    if case.startswith("verify-fails-"):  # every float defect lies above 1e-300
        monkeypatch.setattr("k3fm.verify._TOLERANCE", 1e-300)
    assert _run(capsys, monkeypatch, argv, stdin) == (code, err, digest)


USAGE_CASES = sorted(case for case, (_, _, _, err, _) in CASES.items()
                     if err.startswith("usage:"))


@pytest.mark.parametrize("columns", ["40", "200", None])
def test_usage_and_help_do_not_follow_the_terminal(columns, capsys, monkeypatch):
    # argparse wraps usage and help to COLUMNS (or the terminal) unless the
    # parser fixes a width; the CLI fixes the one COLUMNS=80 gives.
    assert USAGE_CASES == ["unknown-subcommand", "verify-bad-format"]
    for case in USAGE_CASES:
        argv, stdin, code, err, digest = CASES[case]
        assert _run(capsys, monkeypatch, argv, stdin, columns) == (code, err, digest)
    _set_columns(monkeypatch, "80")
    assert main(["table", "--help"]) == 0
    want = capsys.readouterr()
    assert want.out.startswith("usage: k3fm table [-h]") and want.err == ""
    _set_columns(monkeypatch, columns)
    assert main(["table", "--help"]) == 0
    assert capsys.readouterr() == want


def test_cli_golden_non_utf8_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe")
    err = ("error: cannot read input: 'utf-8' codec can't decode byte 0xff in "
           "position 0: invalid start byte\n")
    assert _run(capsys, monkeypatch, f"classify --d 6 {path}", None) == (
        4, err, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855')


def _compensated_sum(values, start=0):
    """CPython 3.12's sum() of floats: the first float item switches to
    Neumaier's compensated summation, and the compensation is added at the
    end.  Only the float items a report's sums see are handled."""
    values = iter(values)
    total = start
    for x in values:
        total = total + x
        if type(total) is float:
            break
    else:
        return total
    c = 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    if c and math.isfinite(c):
        total += c
    return total


def test_verify_bytes_do_not_follow_sum(capsys, monkeypatch):
    # The report is the same on every supported Python: shadowing sum() in
    # the half-plane layer with 3.12's compensated one leaves its bytes.
    # Below 3.12 the native sum() is the plain one; from 3.12 on it is the
    # compensated one, so there the emulation is checked against it.
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0
    if sys.version_info >= (3, 12):
        rng = random.Random(12)
        for _ in range(200):
            values = [rng.choice((0, 1, -3)) + rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20)
                      for _ in range(rng.randint(1, 8))]
            assert sum(values).hex() == _compensated_sum(values).hex(), values
    else:
        assert sum([1e16, 1.0, -1e16]) == 0.0
    monkeypatch.setattr("k3fm.halfplane.sum", _compensated_sum, raising=False)
    argv, stdin, code, err, digest = CASES['verify-52-json']
    assert _run(capsys, monkeypatch, argv, stdin) == (code, err, digest)
